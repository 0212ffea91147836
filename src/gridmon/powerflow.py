"""Newton-Raphson AC power flow, line flows and the power-flow truth layer.

Produces the ground-truth system state for scenario evaluation: bus voltage
magnitudes/angles, line currents and loadings, and the slack injection.
All buses except the slack are treated as PQ buses. The Jacobian and the
line flows derive from the view's branch admittance model
(:attr:`GridView.branches`).

There is one Newton-Raphson. It solves B power flows of one view at once on
``(B, n_bus)`` states, with the view's one ``Ybus`` or, under a per-sample
impedance scale, its stacked ``(B, n_bus, n_bus)`` one. A sample leaves the
iteration when it converges, and a diverged or singular sample fails alone:
each sample's outcome is a status code (``CONVERGED``, ``SINGULAR_JACOBIAN``,
``NO_CONVERGENCE``) next to its iteration count and mismatch norm.
:func:`solve_flows` returns the states as arrays. :func:`solve_pf` is the
one-sample call, and the only code that builds a ``PfSolution`` or raises a
``PowerFlowError``.

:func:`solve_truths` is the truth layer of every command. It solves the
(switch config, scenario) pairs of a set of scenarios, given as one stacked
``InjectionSet``, and returns one :class:`Truths` record of stacked arrays,
config-major: ``config``, ``v``, ``th``, ``loading`` and ``diverged``, and
under a per-sample impedance scale each pair's row of the scale. A cache (such as
``evaluation.TruthCache``) keeps one :class:`TruthTable` per solved config,
with one row per scenario, under a key that :func:`truth_keys` works out from
what the truths are solved from: the grid's content, the config's switch bits
and impedance scale, and the injections. No caller names a truth.

Each sample's result is bitwise the same in any batch: every step is
elementwise per sample or one BLAS/LAPACK call per sample. From 256 KiB
(16,384 complex elements) numpy reuses a temporary operand in place, and a
complex product whose right operand is a temporary, such as ``a *
np.conj(b)``, then rounds differently in the last bit; so every such
product takes a named operand (``t = np.conj(b); a * t``). A batch is
solved in blocks whose largest complex array, ``B x n_bus x n_bus``, stays
under ``ELISION_ELEMENTS``, and of at most ``NEWTON_BLOCK`` samples; the
blocks bound memory, not rounding.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import (GridView, StatePass, bus_powers, dsbus_dv, from_end_flows,
                   grid_fingerprint)

MISMATCH_TOL = 1e-8
MAX_ITERATIONS = 30
ELISION_ELEMENTS = 16384  # complex128 elements in 256 KiB, the block bound
# samples per Newton block at most; blocks of 72 (the ELISION_ELEMENTS bound on
# the bundled feeder) solved truths about a tenth faster than 32 but raised the
# peak RSS of a WLS catalog run by about 0.45 MB
NEWTON_BLOCK = 32
# each sample's outcome in a Newton-Raphson
CONVERGED = 0
SINGULAR_JACOBIAN = 1
NO_CONVERGENCE = 2


class PowerFlowError(Exception):
    """Newton iteration did not converge; carries the last mismatch norm."""

    def __init__(self, message: str, mismatch: float = float("nan")):
        super().__init__(message)
        self.mismatch = mismatch


@dataclass(frozen=True)
class InjectionSet:
    """Net per-bus injections in per-unit, generation positive, ``([B,] n_bus)``.
    Slack entries ignored."""

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
    within ``MAX_ITERATIONS`` Newton steps. This is the one-sample call of
    the batched Newton-Raphson; a diverged sample raises its PowerFlowError.
    """
    p = np.asarray(injections.p_pu, dtype=float)[None]
    q = np.asarray(injections.q_pu, dtype=float)[None]
    _check_schedule(view, p, q)
    (_, block_view, (v, th, s_slack, iterations, mismatch, status)), = \
        _newton_blocks(view, p, q)
    if status[0] == SINGULAR_JACOBIAN:
        raise PowerFlowError(f"singular Jacobian at iteration {iterations[0] + 1}",
                             mismatch[0])
    if status[0] == NO_CONVERGENCE:
        raise PowerFlowError(f"no convergence after {MAX_ITERATIONS} iterations "
                             f"(mismatch {mismatch[0]:.3e})", mismatch[0])
    flows = line_flows(StatePass(block_view.branches, v, th))
    s_base_kw = view.grid.s_base_mva * 1e3
    return PfSolution(v_mag_pu=v[0], v_ang_rad=th[0],
                      i_line_amps=(flows.i_from_pu * block_view.branches.i_base_from)[0],
                      loading_pct=flows.loading_pct[0],
                      p_slack_kw=float(s_slack[0].real) * s_base_kw,
                      q_slack_kvar=float(s_slack[0].imag) * s_base_kw,
                      iterations=int(iterations[0]), max_mismatch=float(mismatch[0]))


def solve_flows(view: GridView, p: np.ndarray, q: np.ndarray):
    """Solve the B power flows of scheduled injections ``p``/``q`` ``(B,
    n_bus)`` in one Newton-Raphson, as arrays.

    Under a per-sample impedance scale ``(B, n_line)`` row b of the scale is
    sample b's network. Returns ``v`` and ``th`` ``(B, n_bus)``, the loading
    ``(B, n_line)`` in percent and the diverged mask ``(B,)``: a singular
    Jacobian or no convergence fails that sample only, and its rows are NaN.
    Each row is bitwise the fields of that sample's :func:`solve_pf`.
    """
    _check_schedule(view, p, q)
    n_samples = len(p)
    v = np.full((n_samples, view.n_bus), np.nan)
    th = np.full((n_samples, view.n_bus), np.nan)
    loading = np.full((n_samples, len(view.grid.lines)), np.nan)
    diverged = np.zeros(n_samples, dtype=bool)
    for start, block_view, (vb, thb, _, _, _, status) in _newton_blocks(view, p, q):
        ok = status == CONVERGED
        diverged[start + np.flatnonzero(~ok)] = True
        if ok.all():
            rows = slice(start, start + len(ok))
        else:
            rows = start + np.flatnonzero(ok)
            block_view, vb, thb = block_view.take(ok), vb[ok], thb[ok]
        if len(vb):
            v[rows], th[rows] = vb, thb
            loading[rows] = line_flows(StatePass(block_view.branches, vb, thb)).loading_pct
    return v, th, loading, diverged


def _check_schedule(view: GridView, p: np.ndarray, q: np.ndarray) -> None:
    if p.shape != q.shape or p.ndim != 2 or p.shape[1] != view.grid.n_bus:
        raise ValueError("injection vectors must have one entry per bus")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))):
        raise ValueError("injections must be finite")
    if view.dead_buses:
        dead = sorted(view.dead_buses)
        if np.any(np.abs(p[:, dead]) + np.abs(q[:, dead]) > 0):
            raise ValueError("nonzero injection at a bus cut off the slack")


def _newton_blocks(view: GridView, p: np.ndarray, q: np.ndarray):
    """Yield, for each block of the rows of ``p``/``q`` under the block
    bound, its first row, its view and what :func:`_newton` returns for it."""
    n, slack = view.grid.n_bus, view.grid.slack_bus
    pq = np.array([i for i in range(n) if i != slack and i not in view.dead_buses],
                  dtype=int)
    block = min(NEWTON_BLOCK, max(1, (ELISION_ELEMENTS - 1) // (n * n)))
    for start in range(0, len(p), block):
        rows = slice(start, start + block)
        block_view = view.take(rows)
        yield start, block_view, _newton(block_view.branches, slack, pq, p[rows], q[rows])


def _newton(net, slack, pq, p, q):
    """Newton-Raphson on the rows of ``p``/``q`` from a flat start, on the
    branch model ``net``, shared or stacked one matrix per row.

    A sample leaves the live set at the iteration where it converges, so its
    state stays as it was then. Returns the states, the slack injections,
    the Newton steps taken, the last mismatch norms and each sample's status
    code: ``CONVERGED``, ``SINGULAR_JACOBIAN`` (at step ``iterations + 1``)
    or ``NO_CONVERGENCE``.
    """
    n_samples, n = p.shape
    m = len(pq)
    v = np.ones((n_samples, n))
    th = np.zeros((n_samples, n))
    s_slack = np.zeros(n_samples, dtype=complex)
    iterations = np.zeros(n_samples, dtype=int)
    mismatch = np.full(n_samples, np.inf)
    status = np.full(n_samples, NO_CONVERGENCE)
    p, q = p[:, pq], q[:, pq]
    live = np.arange(n_samples)
    for iteration in range(1, MAX_ITERATIONS + 1):
        state = StatePass(net, v[live], th[live])
        s_calc = bus_powers(state)
        ds_dth, ds_dv = dsbus_dv(state, pq)
        dp = p[live] - s_calc.real[:, pq]
        dq = q[live] - s_calc.imag[:, pq]
        dp_max, dq_max = np.abs(dp).max(axis=1), np.abs(dq).max(axis=1)
        # as Python's max(dp_max, dq_max), NaN included
        norm = np.where(dq_max > dp_max, dq_max, dp_max)
        mismatch[live] = norm
        done = norm < MISMATCH_TOL
        if done.any():
            iterations[live[done]] = iteration - 1
            s_slack[live[done]] = s_calc[done, slack]
            status[live[done]] = CONVERGED
            go = ~done
            live = live[go]
            if not live.size:
                break
            ds_dth, ds_dv, dp, dq = ds_dth[go], ds_dv[go], dp[go], dq[go]
            net = net.take(go)
        # rows: P then Q mismatch; columns: angle then magnitude, PQ buses only
        jac = np.empty((live.size, 2 * m, 2 * m))
        jac[:, :m, :m] = ds_dth.real
        jac[:, :m, m:] = ds_dv.real
        jac[:, m:, :m] = ds_dth.imag
        jac[:, m:, m:] = ds_dv.imag
        del ds_dth, ds_dv  # not held through the solve: a lower peak memory
        step, singular = solve_samples(jac, np.concatenate([dp, dq], axis=1))
        if singular.any():
            iterations[live[singular]] = iteration - 1
            status[live[singular]] = SINGULAR_JACOBIAN
            live, step = live[~singular], step[~singular]
            net = net.take(~singular)
        th[live[:, None], pq] += step[:, :m]
        v[live[:, None], pq] += step[:, m:]
    iterations[live] = MAX_ITERATIONS
    return v, th, s_slack, iterations, mismatch, status


def solve_samples(a, rhs):
    """Solve ``a[b] @ x[b] = rhs[b]`` for each sample b of a ``(B, k, k)``
    stack, with the result and a per-sample singular mask; a singular matrix
    fails only its sample. Each solution is bitwise the one-sample solve."""
    singular = np.zeros(len(a), dtype=bool)
    try:
        return np.linalg.solve(a, rhs[:, :, None])[:, :, 0], singular
    except np.linalg.LinAlgError:
        pass
    x = np.zeros_like(rhs)
    for b in range(len(a)):
        try:
            x[b] = np.linalg.solve(a[b], rhs[b])
        except np.linalg.LinAlgError:
            singular[b] = True
    return x, singular


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


def line_flows(state: StatePass) -> LineFlows:
    """Per-line flows at both ends of the states of a ``grid.StatePass``.

    The pass is of one state ``(n_bus,)`` or a stack ``(B, n_bus)``; under a
    per-sample impedance scale row b of its branch model is state b's
    network. The flows take the states' leading shape.
    """
    net, vc = state.net, state.vc
    _, _, s_f = from_end_flows(state)
    i_t = (net.yt @ vc[..., None])[..., 0]
    conj_t = np.conj(i_t)
    s_t = vc[..., net.t_bus] * conj_t
    i_f, i_t = np.abs(state.i_f), np.abs(i_t)
    worst = np.maximum(i_f * net.i_base_from, i_t * net.i_base_to)
    return LineFlows(p_from_pu=s_f.real, q_from_pu=s_f.imag,
                     p_to_pu=s_t.real, q_to_pu=s_t.imag,
                     i_from_pu=i_f,
                     loading_pct=100.0 * worst / net.rating_amps)


# the truth records are named tuples: a frozen dataclass would add about a
# millisecond each to every command's start-up
class Truths(NamedTuple):
    """The truths of (switch config, scenario) pairs, config-major: row
    ``c * n_scenarios + s`` is pair (c, s).

    A diverged pair's state rows are NaN. ``scale`` is each pair's
    impedance scale under per-sample factors, else None.
    """

    config: np.ndarray  # (N,) switch config index
    v: np.ndarray  # (N, n_bus) pu
    th: np.ndarray  # (N, n_bus) rad
    loading: np.ndarray  # (N, n_line) percent
    diverged: np.ndarray  # (N,) bool
    scale: np.ndarray | None = None  # (N, n_line)


class TruthTable(NamedTuple):
    """The memoised truths of one switch config, row s for scenario s: what
    :func:`solve_flows` returns for that config."""

    v: np.ndarray  # (n_scenarios, n_bus)
    th: np.ndarray
    loading: np.ndarray  # (n_scenarios, n_line)
    diverged: np.ndarray  # (n_scenarios,) bool


def truth_keys(views, injections: InjectionSet) -> list[str]:
    """The cache key of each view's truths: a digest of what they are solved
    from, the grid's content, the view's switch config and impedance scale,
    and the bytes of every scenario's injections.

    The views share one grid; it and the injections are hashed once.
    """
    base = hashlib.blake2b(grid_fingerprint(views[0].grid).encode(), digest_size=16)
    # the sample count fixes the length of every field but the optional scale
    base.update(np.int64(len(injections.p_pu)).tobytes())
    base.update(injections.p_pu.tobytes())
    base.update(injections.q_pu.tobytes())
    keys = []
    for view in views:
        key = base.copy()
        key.update(bytes(view.config))
        if view.impedance_scale is not None:
            key.update(view.impedance_scale.tobytes())
        keys.append(key.hexdigest())
    return keys


def solve_truths(views, injections: InjectionSet, *, cache=None,
                 sample_factors=None) -> Truths:
    """Noise-free truths of every (switch config, scenario) pair.

    ``views[c]`` is the network of config ``c`` and row s of the stacked
    ``injections`` ``(n_scenarios, n_bus)`` the bus injections of scenario
    s. Returns the :class:`Truths` of the pairs, config-major.

    ``sample_factors(c, scenarios)`` gives the ``(B, n_line)`` line
    impedance scale of config c's pairs, and such truths are never
    memoised. Otherwise a ``cache`` (a dict such as
    ``evaluation.TruthCache``) keeps one :class:`TruthTable` per config
    under its :func:`truth_keys` key. Each config's pairs are solved in one
    :func:`solve_flows` call, whose Newton-Raphson takes them
    ``NEWTON_BLOCK`` at a time.
    """
    p_all, q_all = injections.p_pu, injections.q_pu
    scs = np.arange(len(p_all))
    memo = cache if sample_factors is None else None
    keys = truth_keys(views, injections) if memo is not None else None
    tables, scales = [], []
    for cfg_idx, view in enumerate(views):
        if sample_factors is not None:
            scales.append(np.asarray(sample_factors(cfg_idx, scs), dtype=float))
            view = view.with_scaled_impedance(scales[-1])
        table = memo.get(keys[cfg_idx]) if memo is not None else None
        if table is None:
            table = TruthTable(*solve_flows(view, p_all, q_all))
            if memo is not None:
                memo[keys[cfg_idx]] = table
        tables.append(table)
    return Truths(config=np.repeat(np.arange(len(views)), len(scs)),
                  v=np.concatenate([t.v for t in tables]),
                  th=np.concatenate([t.th for t in tables]),
                  loading=np.concatenate([t.loading for t in tables]),
                  diverged=np.concatenate([t.diverged for t in tables]),
                  scale=np.concatenate(scales) if scales else None)
