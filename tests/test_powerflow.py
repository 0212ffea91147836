import math

import numpy as np
import pytest

from gridmon import powerflow
from gridmon.evaluation import TruthCache
from gridmon.grid import StatePass, apply_switch_config, build_admittance
from gridmon.powerflow import (InjectionSet, PowerFlowError, line_flows, solve_pf,
                               solve_truths, truth_keys)
from gridmon.scenarios import DEFAULT_AXES, generate_set, injections

from conftest import flat_scenario, n_known

CONFIG_0 = (False, False, False, True, True, True)


def two_bus_closed_form(p_load, q_load, x):
    """High-voltage root of the two-bus quadratic (pure reactance line)."""
    # |V|^4 + |V|^2 (2 q x - 1) + x^2 (p^2 + q^2) = 0, load positive
    b = 2 * q_load * x - 1
    disc = b * b - 4 * x * x * (p_load**2 + q_load**2)
    u = (-b + math.sqrt(disc)) / 2
    return math.sqrt(u)


def test_zero_injection_flat_state(cigre):
    # shunt charging would lift the no-load voltages, so null it out
    from dataclasses import replace

    bare = replace(cigre, lines=tuple(replace(ln, b_us=0.0) for ln in cigre.lines))
    view = apply_switch_config(bare, CONFIG_0)
    inj = InjectionSet(np.zeros(15), np.zeros(15))
    sol = solve_pf(view, inj)
    assert np.allclose(sol.v_mag_pu, 1.0, atol=1e-9)
    assert np.allclose(sol.v_ang_rad, 0.0, atol=1e-9)
    assert np.allclose(sol.i_line_amps, 0.0, atol=1e-6)
    assert sol.p_slack_kw == pytest.approx(0.0, abs=1e-6)


def test_zero_scaling_recovers_flat_state_modulo_charging(cigre):
    # on the real grid the no-load state still converges and stays near 1 pu
    view = apply_switch_config(cigre, CONFIG_0)
    sol = solve_pf(view, InjectionSet(np.zeros(15), np.zeros(15)))
    assert np.all(np.abs(sol.v_mag_pu - 1.0) < 0.006)


def test_two_bus_matches_closed_form(two_bus):
    view = apply_switch_config(two_bus, ())
    p, q = 0.1, 0.0  # pu load
    inj = InjectionSet(np.array([0.0, -p]), np.array([0.0, -q]))
    sol = solve_pf(view, inj)
    assert abs(sol.v_mag_pu[1] - two_bus_closed_form(p, q, 0.1)) < 1e-8


def test_two_bus_with_reactive_load(two_bus):
    view = apply_switch_config(two_bus, ())
    p, q = 0.2, 0.05
    sol = solve_pf(view, InjectionSet(np.array([0.0, -p]), np.array([0.0, -q])))
    assert abs(sol.v_mag_pu[1] - two_bus_closed_form(p, q, 0.1)) < 1e-8


def test_mismatch_residual_under_tolerance(cigre):
    view = apply_switch_config(cigre, CONFIG_0)
    sol = solve_pf(view, injections(cigre, flat_scenario(cigre, load=0.8, dg=0.6)))
    y = build_admittance(view)
    vc = sol.v_mag_pu * np.exp(1j * sol.v_ang_rad)
    s_calc = vc * np.conj(y @ vc)
    inj = injections(cigre, flat_scenario(cigre, load=0.8, dg=0.6))
    pq = [b.id for b in cigre.buses if b.kind == "pq"]
    assert np.max(np.abs(s_calc.real[pq] - inj.p_pu[pq])) < 1e-8
    assert np.max(np.abs(s_calc.imag[pq] - inj.q_pu[pq])) < 1e-8


def test_power_balance_identity(cigre):
    view = apply_switch_config(cigre, CONFIG_0)
    scenario = flat_scenario(cigre, load=1.0, dg=0.5)
    inj = injections(cigre, scenario)
    sol = solve_pf(view, inj)
    flows = line_flows(StatePass(view.branches, sol.v_mag_pu, sol.v_ang_rad))
    total_injection = inj.p_pu.sum() + sol.p_slack_kw / (cigre.s_base_mva * 1e3)
    assert abs(total_injection - flows.losses_pu.sum()) < 1e-8


def test_losses_nonnegative_with_resistance(cigre):
    view = apply_switch_config(cigre, CONFIG_0)
    sol = solve_pf(view, injections(cigre, flat_scenario(cigre, load=0.7, dg=0.9)))
    flows = line_flows(StatePass(view.branches, sol.v_mag_pu, sol.v_ang_rad))
    assert (flows.losses_pu >= -1e-12).all()


def test_lossless_line_conserves_power(two_bus):
    view = apply_switch_config(two_bus, ())
    sol = solve_pf(view, InjectionSet(np.array([0.0, -0.1]), np.array([0.0, 0.0])))
    flows = line_flows(StatePass(view.branches, sol.v_mag_pu, sol.v_ang_rad))
    assert flows.p_from_pu[0] == pytest.approx(-flows.p_to_pu[0], abs=1e-10)


def test_open_line_carries_nothing(three_bus):
    from dataclasses import replace

    bare = replace(three_bus, units=(three_bus.units[0],))
    view = apply_switch_config(bare, (False,))
    sol = solve_pf(view, injections(bare, flat_scenario(bare, load=0.5)))
    flows = line_flows(StatePass(view.branches, sol.v_mag_pu, sol.v_ang_rad))
    assert sol.i_line_amps[1] == 0.0
    assert flows.p_from_pu[1] == 0.0 and flows.p_to_pu[1] == 0.0
    assert sol.loading_pct[1] == 0.0


def test_slack_held_at_nominal(cigre):
    view = apply_switch_config(cigre, CONFIG_0)
    sol = solve_pf(view, injections(cigre, flat_scenario(cigre, load=1.0)))
    assert sol.v_mag_pu[0] == 1.0
    assert sol.v_ang_rad[0] == 0.0


def test_loading_uses_conservative_end(cigre):
    view = apply_switch_config(cigre, CONFIG_0)
    sol = solve_pf(view, injections(cigre, flat_scenario(cigre, load=1.0)))
    ln = cigre.line_by_name("1-2")
    i_from = sol.i_line_amps[ln.id]
    assert sol.loading_pct[ln.id] >= 100.0 * i_from / ln.rating_amps - 1e-12


def test_divergence_raises_with_mismatch(two_bus):
    view = apply_switch_config(two_bus, ())
    # far beyond the maximum deliverable power over x=0.1 pu
    with pytest.raises(PowerFlowError) as err:
        solve_pf(view, InjectionSet(np.array([0.0, -60.0]), np.array([0.0, -5.0])))
    assert np.isfinite(err.value.mismatch) or np.isnan(err.value.mismatch)


def test_injection_dimension_checked(two_bus):
    view = apply_switch_config(two_bus, ())
    with pytest.raises(ValueError):
        solve_pf(view, InjectionSet(np.zeros(3), np.zeros(3)))


def test_scenario_set_converges_and_balances(cigre):
    # cross-section of the scenario space, incl. reverse power flow
    view = apply_switch_config(cigre, CONFIG_0)
    scenarios = generate_set(DEFAULT_AXES, cigre, 1, seed=123)[::97]
    assert len(scenarios) >= 10
    for sc in scenarios:
        inj = injections(cigre, sc)
        sol = solve_pf(view, inj)
        flows = line_flows(StatePass(view.branches, sol.v_mag_pu, sol.v_ang_rad))
        balance = inj.p_pu.sum() + sol.p_slack_kw / 1e3 - flows.losses_pu.sum()
        assert abs(balance) < 1e-8


@pytest.fixture
def truth_inputs(two_bus):
    """One two-bus view and three loads; the middle one makes NR diverge."""
    view = apply_switch_config(two_bus, ())
    loads = [InjectionSet(np.array([0.0, -p]), np.array([0.0, -q]))
             for p, q in ((0.1, 0.0), (60.0, 5.0), (0.2, 0.05))]
    return view, loads


def _stack(loads):
    """The InjectionSets as one stacked set, one row per scenario."""
    return InjectionSet(np.array([inj.p_pu for inj in loads]),
                        np.array([inj.q_pu for inj in loads]))


@pytest.fixture
def solve_calls(monkeypatch):
    """Counts the power flows the truth layer solves, one entry per sample."""
    calls = []
    real = powerflow.solve_flows

    def counting(view, p, q):
        calls.extend([view] * len(p))
        return real(view, p, q)

    monkeypatch.setattr(powerflow, "solve_flows", counting)
    return calls


def _same_truth(truths, row, sol):
    """Row ``row`` of the truths is bitwise the PfSolution ``sol``."""
    return (truths.v[row].tobytes() == sol.v_mag_pu.tobytes()
            and truths.th[row].tobytes() == sol.v_ang_rad.tobytes()
            and truths.loading[row].tobytes() == sol.loading_pct.tobytes()
            and not truths.diverged[row])


def _is_diverged(truths, row):
    return bool(truths.diverged[row] and np.isnan(truths.v[row]).all()
                and np.isnan(truths.th[row]).all() and np.isnan(truths.loading[row]).all())


def test_solve_truths_config_major_and_diverged_is_none(truth_inputs, solve_calls):
    view, loads = truth_inputs
    truths = solve_truths([view, view], _stack(loads))
    assert truths.config.tolist() == [0, 0, 0, 1, 1, 1]
    assert truths.diverged.tolist() == [False, True, False] * 2
    for first in (0, 3):
        assert _is_diverged(truths, first + 1)
        assert _same_truth(truths, first, solve_pf(view, loads[0]))
    assert truths.scale is None
    assert len(solve_calls) == 6


def test_solve_truths_second_pass_reads_cache(truth_inputs, solve_calls):
    view, loads = truth_inputs
    cache = TruthCache()
    first = solve_truths([view], _stack(loads), cache=cache)
    assert len(solve_calls) == 3
    assert list(cache) == truth_keys([view], _stack(loads))
    assert n_known(cache) == 3
    second = solve_truths([view], _stack(loads), cache=cache)
    assert len(solve_calls) == 3  # diverged pair included
    for name in ("config", "v", "th", "loading", "diverged"):
        assert getattr(first, name).tobytes() == getattr(second, name).tobytes()
    assert _is_diverged(second, 1)


def test_truth_keys_follow_what_truths_are_solved_from(cigre):
    """A truth key changes with the grid's content, the switch config, the
    impedance scale and the injections, and with nothing else."""
    from dataclasses import replace

    scenarios = generate_set(DEFAULT_AXES, cigre, 1, 7)
    inj = _stack([injections(cigre, sc) for sc in scenarios[:4]])
    views = [apply_switch_config(cigre, CONFIG_0),
             apply_switch_config(cigre, (True, False, True, False, True, False))]
    views.append(views[0].with_scaled_impedance(np.full(len(cigre.lines), 1.1)))
    keys = truth_keys(views, inj)
    assert len(set(keys)) == 3
    # the same content in new objects
    copy = _stack([injections(cigre, sc) for sc in scenarios[:4]])
    assert truth_keys([apply_switch_config(replace(cigre), CONFIG_0)], copy) == keys[:1]
    # another scenario list of the same length
    other = _stack([injections(cigre, sc) for sc in scenarios[4:8]])
    assert not set(truth_keys(views, other)) & set(keys)
    # one line's resistance
    lines = (replace(cigre.lines[0], r_ohm=1.01 * cigre.lines[0].r_ohm),) + cigre.lines[1:]
    assert truth_keys([apply_switch_config(replace(cigre, lines=lines), CONFIG_0)],
                      inj) != keys[:1]


def test_solve_truths_never_memoises_per_sample_impedances(truth_inputs, solve_calls):
    view, loads = truth_inputs
    cache = TruthCache()

    def factors(c, scenarios):
        return 1.0 + 0.1 * np.asarray(scenarios, dtype=float)[:, None]

    for _ in range(2):
        truths = solve_truths([view], _stack(loads), cache=cache, sample_factors=factors)
    assert len(solve_calls) == 6
    assert len(cache) == 0
    assert truths.scale.tobytes() == factors(0, [0, 1, 2]).tobytes()
    assert _same_truth(truths, 2, solve_pf(_reference_view(view, [1.0 + 0.1 * 2]), loads[2]))


def _reference_view(view, factors):
    """``view``'s switch configuration on a copy of its grid whose line r and
    x were multiplied by ``factors`` one ``Line`` at a time."""
    from dataclasses import replace

    grid = view.grid
    lines = tuple(replace(ln, r_ohm=ln.r_ohm * factors[ln.id], x_ohm=ln.x_ohm * factors[ln.id])
                  for ln in grid.lines)
    return apply_switch_config(replace(grid, lines=lines), view.config)


def _newton_rows(view, loads):
    """What the batched Newton-Raphson returns for ``loads``, stacked over its
    blocks: states, slack injections, steps, mismatch norms and status."""
    stacked = _stack(loads)
    blocks = powerflow._newton_blocks(view, stacked.p_pu, stacked.q_pu)
    return [np.concatenate(part) for part in zip(*(solved for _, _, solved in blocks))]


def _same_newton_row(solved, b, sol, view):
    """Row b of :func:`_newton_rows` output is bitwise the PfSolution ``sol``:
    state, slack injection, iteration count and mismatch norm."""
    v, th, s_slack, iterations, mismatch, status = solved
    s_base_kw = view.grid.s_base_mva * 1e3
    return (status[b] == powerflow.CONVERGED
            and v[b].tobytes() == sol.v_mag_pu.tobytes()
            and th[b].tobytes() == sol.v_ang_rad.tobytes()
            and float(s_slack[b].real) * s_base_kw == sol.p_slack_kw
            and float(s_slack[b].imag) * s_base_kw == sol.q_slack_kvar
            and iterations[b] == sol.iterations and mismatch[b] == sol.max_mismatch)


@pytest.fixture(scope="module")
def cigre_batch(cigre):
    """All 1,100 default-axes scenarios on config 0: 16,500 complex bus
    voltages, past the 16,384 elements where numpy reuses a temporary in
    place and its complex product rounds differently."""
    view = apply_switch_config(cigre, CONFIG_0)
    inj = [injections(cigre, sc) for sc in generate_set(DEFAULT_AXES, cigre, 1, 5)]
    assert len(inj) * cigre.n_bus > powerflow.ELISION_ELEMENTS
    return view, inj


def test_batched_truths_bitwise_equal_per_pair_solves(cigre_batch):
    view, inj = cigre_batch
    single = [solve_pf(view, i) for i in inj]
    solved = _newton_rows(view, inj)
    truths = solve_truths([view], _stack(inj))
    assert truths.config.tolist() == [0] * len(inj)
    assert all(_same_newton_row(solved, s, sol, view) for s, sol in enumerate(single))
    assert all(_same_truth(truths, s, sol) for s, sol in enumerate(single))
    stacked = _stack(inj)
    v, th, loading, diverged = powerflow.solve_flows(view, stacked.p_pu, stacked.q_pu)
    assert not diverged.any()
    assert (v.tobytes(), th.tobytes(), loading.tobytes()) == (
        truths.v.tobytes(), truths.th.tobytes(), truths.loading.tobytes())


def test_batched_per_sample_impedances_bitwise_equal(cigre_batch):
    view, inj = cigre_batch
    gen = np.random.default_rng(11)
    factors = 1.0 / gen.uniform(0.9, 1.1, (len(inj), len(view.grid.lines)))
    truths = solve_truths([view], _stack(inj),
                          sample_factors=lambda c, scenarios: factors[scenarios])
    assert truths.scale.tobytes() == factors.tobytes()
    assert truths.config.tolist() == [0] * len(inj)
    stacked = view.with_scaled_impedance(factors[:16]).branches
    for s in range(len(inj)):
        reference = _reference_view(view, factors[s])
        if s < 16:
            for name in ("ybus", "yf", "yt"):
                expected = getattr(reference.branches, name).tobytes()
                assert getattr(stacked, name)[s].tobytes() == expected
        assert _same_truth(truths, s, solve_pf(reference, inj[s]))


def _state_calls(n_bus, n_line):
    """Each state function under test as ``call(view, v, th)`` returning its
    arrays, with the subsets that the Newton-Raphson and WLS pass."""
    from gridmon.grid import bus_powers, dsbus_dv, dsf_dv
    from gridmon.measurements import KIND_CODE, measured_values
    from gridmon.wls import RowPlan, measurement_model

    pq, lines = np.arange(1, n_bus), np.arange(0, n_line, 2)
    every = np.arange(3 * n_bus + 3 * n_line)
    # V, bus P/Q, line P/Q and current rows, one line read both as flows and
    # as a current
    rows = [("v_bus", 0), ("v_bus", 6), ("p_bus", 4), ("q_bus", 4), ("p_bus", 7),
            ("q_bus", 7), ("p_line", 1), ("q_line", 1), ("p_line", 8), ("q_line", 8),
            ("i_line", 8), ("i_line", 11)]
    kind = np.array([KIND_CODE[k] for k, _ in rows])
    location = np.array([at for _, at in rows])

    def on(view, v, th):
        return StatePass(view.branches, v, th)

    def pass_arrays(view, v, th):
        state = on(view, v, th)
        return state.unit, state.vc, state.i_bus, state.i_f

    def model(view, v, th):
        return measurement_model(view, RowPlan.for_rows(view, kind, location), v, th)

    return {
        "state_pass": pass_arrays,
        "bus_powers": lambda view, v, th: (bus_powers(on(view, v, th)),),
        "dsbus_dv": lambda view, v, th: dsbus_dv(on(view, v, th)),
        "dsbus_dv_buses": lambda view, v, th: dsbus_dv(on(view, v, th), pq),
        "dsf_dv": lambda view, v, th: dsf_dv(on(view, v, th)),
        "dsf_dv_lines": lambda view, v, th: dsf_dv(on(view, v, th), lines),
        "line_flows": lambda view, v, th: tuple(vars(line_flows(on(view, v, th))).values()),
        "measured_values": lambda view, v, th: (measured_values(on(view, v, th), every),),
        "measurement_model": model,
    }


@pytest.mark.parametrize("per_sample", [False, True], ids=["shared", "per_sample"])
@pytest.mark.parametrize("name", ["state_pass", "bus_powers", "dsbus_dv", "dsbus_dv_buses",
                                  "dsf_dv", "dsf_dv_lines", "line_flows", "measured_values",
                                  "measurement_model"])
def test_state_functions_bitwise_free_of_the_stack_size(cigre, name, per_sample):
    """1,100 states in one call equal the same states in 32-state slices in
    every output. The single call passes the 16,384 complex elements from
    which numpy reuses a temporary operand in place, where a complex product
    with a temporary right operand rounds differently."""
    n_states, n_line = 1100, len(cigre.lines)
    assert n_states * cigre.n_bus > powerflow.ELISION_ELEMENTS
    gen = np.random.default_rng(7)
    v = 1.0 + 0.02 * gen.standard_normal((n_states, cigre.n_bus))
    th = 0.01 * gen.standard_normal((n_states, cigre.n_bus))
    view = apply_switch_config(cigre, CONFIG_0)
    if per_sample:
        view = view.with_scaled_impedance(gen.uniform(0.8, 1.2, (n_states, n_line)))
    call = _state_calls(cigre.n_bus, n_line)[name]
    whole = call(view, v, th)
    parts = [call(view.take(slice(s, s + 32)), v[s:s + 32], th[s:s + 32])
             for s in range(0, n_states, 32)]
    for k, out in enumerate(whole):
        assert out.tobytes() == np.concatenate([p[k] for p in parts]).tobytes(), k


def test_truths_under_a_power_deviation_equal_per_pair_solves(cigre):
    """Unit powers scaled at some buses, stacked, give each pair the truth of
    its own deviated scenario."""
    from gridmon.measurements import scale_powers_at
    from gridmon.scenarios import bus_injections, unit_powers

    scenarios = generate_set(DEFAULT_AXES, cigre, 1, 7)[::25]
    views = [apply_switch_config(cigre, CONFIG_0),
             apply_switch_config(cigre, (True, False, True, False, True, False))]
    p_kw, q_kvar = unit_powers(scenarios)
    for buses, factor in (((4,), 0.7), ((5, 9, 10), 1.3)):
        p_kw, q_kvar = scale_powers_at(cigre, buses, factor, p_kw, q_kvar)
    truths = solve_truths(views, bus_injections(cigre, p_kw, q_kvar))
    pairs = [(c, s) for c in range(2) for s in range(len(scenarios))]
    assert truths.config.tolist() == [c for c, _ in pairs]
    for row, (c, s) in enumerate(pairs):
        p, q = scale_powers_at(cigre, (4,), 0.7, scenarios[s].p_kw, scenarios[s].q_kvar)
        p, q = scale_powers_at(cigre, (5, 9, 10), 1.3, p, q)
        assert _same_truth(truths, row, solve_pf(views[c], bus_injections(cigre, p, q)))


def _cut_view(two_bus):
    """Two-bus view whose only line is out of service but whose load bus is
    not marked dead, so every Jacobian is zero."""
    from gridmon.grid import GridView

    return GridView(grid=two_bus, config=(), line_in_service=np.array([False]))


def test_failed_samples_leave_their_neighbours_unchanged(truth_inputs, two_bus):
    view, loads = truth_inputs
    # one Newton-Raphson over stacked matrices whose third sample has its line cut
    from dataclasses import replace

    nets = [view.branches] * 2 + [_cut_view(two_bus).branches] + [view.branches]
    net = replace(view.branches, **{name: np.stack([getattr(n, name) for n in nets])
                                    for name in ("ybus", "yf", "yt")})
    stacked = _stack([loads[0], loads[1], loads[0], loads[2]])
    solved = powerflow._newton(net, 0, np.array([1]), stacked.p_pu, stacked.q_pu)
    status, iterations = solved[5], solved[3]
    assert status.tolist() == [powerflow.CONVERGED, powerflow.NO_CONVERGENCE,
                               powerflow.SINGULAR_JACOBIAN, powerflow.CONVERGED]
    assert iterations[1] == powerflow.MAX_ITERATIONS and iterations[2] == 0
    assert _same_newton_row(solved, 0, solve_pf(view, loads[0]), view)
    assert _same_newton_row(solved, 3, solve_pf(view, loads[2]), view)
    # the one-sample call raises what the status codes name
    with pytest.raises(PowerFlowError, match="^no convergence after 30 iterations"):
        solve_pf(view, loads[1])
    with pytest.raises(PowerFlowError, match="^singular Jacobian at iteration 1$"):
        solve_pf(_cut_view(two_bus), loads[0])

    # the same through the truth layer, both failures in one call
    truths = solve_truths([view, _cut_view(two_bus)], _stack(loads))
    assert truths.diverged.tolist() == [False, True, False] + [True] * 3
    assert all(_is_diverged(truths, row) for row in (1, 3, 4, 5))
    assert _same_truth(truths, 0, solve_pf(view, loads[0]))
    assert _same_truth(truths, 2, solve_pf(view, loads[2]))


def test_mixed_config_pairs_keep_order_and_cache_keys(truth_inputs, solve_calls,
                                                      monkeypatch):
    view, loads = truth_inputs
    views = [view, view.with_scaled_impedance(np.array([1.5]))]
    # Newton blocks of two two-bus samples: a block boundary mid-config
    monkeypatch.setattr(powerflow, "ELISION_ELEMENTS", 9)
    cache = TruthCache()
    truths = solve_truths(views, _stack(loads), cache=cache)
    pairs = [(c, s) for c in range(2) for s in range(3)]
    assert truths.config.tolist() == [c for c, _ in pairs]
    # config-major: every pair of config 0, then every pair of config 1
    assert [id(v) for v in solve_calls] == [id(views[0])] * 3 + [id(views[1])] * 3
    keys = truth_keys(views, _stack(loads))
    assert list(cache) == keys and keys[0] != keys[1]
    assert n_known(cache) == 6
    for row, (c, s) in enumerate(pairs):
        table = cache[keys[c]]
        assert table.v[s].tobytes() == truths.v[row].tobytes()
        if s == 1:
            assert _is_diverged(truths, row) and table.diverged[s]
        else:
            assert _same_truth(truths, row, solve_pf(views[c], loads[s]))
