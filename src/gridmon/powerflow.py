"""Newton-Raphson AC power flow, line flows and the power-flow truth layer.

Produces the ground-truth system state for scenario evaluation: bus voltage
magnitudes/angles, line currents and loadings, and the slack injection.
All buses except the slack are treated as PQ buses. The Jacobian and the
line flows derive from the view's branch admittance model
(:attr:`GridView.branches`). :func:`solve_truths` solves the (switch
config, scenario) pairs of every caller and yields None for a diverged one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .grid import GridView, build_admittance, dsbus_dv

MISMATCH_TOL = 1e-8
MAX_ITERATIONS = 30


class PowerFlowError(Exception):
    """Newton iteration did not converge; carries the last mismatch norm."""

    def __init__(self, message: str, mismatch: float = float("nan")):
        super().__init__(message)
        self.mismatch = mismatch


@dataclass(frozen=True)
class InjectionSet:
    """Net per-bus injections in per-unit, generation positive. Slack entries ignored."""

    p_pu: np.ndarray
    q_pu: np.ndarray


@dataclass(frozen=True)
class PfSolution:
    v_mag_pu: np.ndarray
    v_ang_rad: np.ndarray
    i_line_amps: np.ndarray  # from-end current magnitude per line
    loading_pct: np.ndarray  # 100 * max(from, to current) / rating
    p_slack_kw: float
    q_slack_kvar: float
    iterations: int
    max_mismatch: float


def solve_pf(view: GridView, injections: InjectionSet) -> PfSolution:
    """Solve the AC power flow from a flat start.

    The slack bus is held at 1.0 pu, 0 rad. Convergence requires the active
    and reactive power mismatch at every PQ bus to drop below ``MISMATCH_TOL``
    within ``MAX_ITERATIONS`` Newton steps.
    """
    grid = view.grid
    n = grid.n_bus
    if len(injections.p_pu) != n or len(injections.q_pu) != n:
        raise ValueError("injection vectors must have one entry per bus")
    if not (np.all(np.isfinite(injections.p_pu)) and np.all(np.isfinite(injections.q_pu))):
        raise ValueError("injections must be finite")

    if view.dead_buses:
        live = np.array([abs(injections.p_pu[b]) + abs(injections.q_pu[b])
                         for b in view.dead_buses])
        if live.size and live.max() > 0:
            raise ValueError("nonzero injection at a bus cut off the slack")

    y = build_admittance(view)
    slack = grid.slack_bus
    pq = np.array([i for i in range(n) if i != slack and i not in view.dead_buses],
                  dtype=int)

    v = np.ones(n)
    th = np.zeros(n)
    p_sched = np.asarray(injections.p_pu, dtype=float)
    q_sched = np.asarray(injections.q_pu, dtype=float)

    mismatch_norm = float("inf")
    for iteration in range(1, MAX_ITERATIONS + 1):
        s_calc, ds_dth, ds_dv = dsbus_dv(y, v, th)
        dp = p_sched[pq] - s_calc.real[pq]
        dq = q_sched[pq] - s_calc.imag[pq]
        mismatch_norm = max(np.max(np.abs(dp)), np.max(np.abs(dq)))
        if mismatch_norm < MISMATCH_TOL:
            return _finalize(view, v, th, s_calc[slack], iteration - 1, mismatch_norm)

        # rows: P then Q mismatch; columns: angle then magnitude, PQ buses only
        ds = np.hstack([ds_dth[:, pq], ds_dv[:, pq]])[pq]
        jac = np.vstack([ds.real, ds.imag])
        rhs = np.concatenate([dp, dq])
        try:
            step = np.linalg.solve(jac, rhs)
        except np.linalg.LinAlgError as exc:
            raise PowerFlowError(f"singular Jacobian at iteration {iteration}",
                                 mismatch_norm) from exc
        m = len(pq)
        th[pq] += step[:m]
        v[pq] += step[m:]

    raise PowerFlowError(
        f"no convergence after {MAX_ITERATIONS} iterations (mismatch {mismatch_norm:.3e})",
        mismatch_norm)


def _finalize(view: GridView, v, th, s_slack, iterations, mismatch) -> PfSolution:
    s_base_kw = view.grid.s_base_mva * 1e3
    flows = line_flows(view, v, th)
    return PfSolution(
        v_mag_pu=v.copy(),
        v_ang_rad=th.copy(),
        i_line_amps=flows.i_from_pu * view.branches.i_base_from,
        loading_pct=flows.loading_pct,
        p_slack_kw=float(s_slack.real) * s_base_kw,
        q_slack_kvar=float(s_slack.imag) * s_base_kw,
        iterations=iterations,
        max_mismatch=float(mismatch),
    )


@dataclass(frozen=True)
class LineFlows:
    """Complex power leaving each line end (per-unit), the from-end current
    magnitude (per-unit) and the loading, aligned with line ids."""

    p_from_pu: np.ndarray
    q_from_pu: np.ndarray
    p_to_pu: np.ndarray
    q_to_pu: np.ndarray
    i_from_pu: np.ndarray
    loading_pct: np.ndarray  # 100 * max(from, to current) / rating

    @property
    def losses_pu(self) -> np.ndarray:
        return self.p_from_pu + self.p_to_pu


def line_flows(view: GridView, v: np.ndarray, th: np.ndarray) -> LineFlows:
    """Per-line flows at both ends for the voltage state ``v``, ``th``."""
    net = view.branches
    vc = v * np.exp(1j * th)
    i_f = net.yf @ vc
    i_t = net.yt @ vc
    s_f = vc[net.f_bus] * np.conj(i_f)
    s_t = vc[net.t_bus] * np.conj(i_t)
    i_f, i_t = np.abs(i_f), np.abs(i_t)
    worst = np.maximum(i_f * net.i_base_from, i_t * net.i_base_to)
    return LineFlows(p_from_pu=s_f.real, q_from_pu=s_f.imag,
                     p_to_pu=s_t.real, q_to_pu=s_t.imag,
                     i_from_pu=i_f,
                     loading_pct=100.0 * worst / net.rating_amps)


def solve_truths(views, injections, n_scenarios: int, *, pairs=None, cache=None,
                 tag=(), sample_factors=None):
    """Noise-free truths of (switch config, scenario) pairs, one at a time.

    Yields ``(cfg_idx, sc_idx, view, solution)`` config-major, or over
    ``pairs`` in their order; ``solution`` is None where Newton-Raphson
    diverges. ``views[c]`` is the network of config ``c``, ``injections(s)``
    the bus injections of scenario ``s``. ``sample_factors(c, s)`` scales each
    pair's line impedances, and such truths are never memoised; otherwise a
    ``cache`` (a dict such as ``evaluation.TruthCache``) keeps
    ``(solution, view)``, divergences too, under ``(tag, c, s)``, with ``tag``
    naming a fixed perturbation.
    """
    if pairs is None:
        pairs = product(range(len(views)), range(n_scenarios))
    memo = cache if sample_factors is None else None
    for cfg_idx, sc_idx in pairs:
        key = (tag, cfg_idx, sc_idx)
        truth = memo.get(key) if memo is not None else None
        if truth is None:
            view = views[cfg_idx]
            if sample_factors is not None:
                view = view.with_scaled_impedance(sample_factors(cfg_idx, sc_idx))
            try:
                truth = (solve_pf(view, injections(sc_idx)), view)
            except PowerFlowError:
                truth = (None, view)
            if memo is not None:
                memo[key] = truth
        yield cfg_idx, sc_idx, truth[1], truth[0]
