import math

import numpy as np
import pytest

from gridmon import powerflow
from gridmon.evaluation import TruthCache
from gridmon.grid import apply_switch_config, build_admittance
from gridmon.powerflow import (InjectionSet, PowerFlowError, line_flows, solve_pf,
                               solve_truths)
from gridmon.scenarios import DEFAULT_AXES, generate_set, injections

from conftest import flat_scenario

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
    flows = line_flows(view, sol.v_mag_pu, sol.v_ang_rad)
    total_injection = inj.p_pu.sum() + sol.p_slack_kw / (cigre.s_base_mva * 1e3)
    assert abs(total_injection - flows.losses_pu.sum()) < 1e-8


def test_losses_nonnegative_with_resistance(cigre):
    view = apply_switch_config(cigre, CONFIG_0)
    sol = solve_pf(view, injections(cigre, flat_scenario(cigre, load=0.7, dg=0.9)))
    flows = line_flows(view, sol.v_mag_pu, sol.v_ang_rad)
    assert (flows.losses_pu >= -1e-12).all()


def test_lossless_line_conserves_power(two_bus):
    view = apply_switch_config(two_bus, ())
    sol = solve_pf(view, InjectionSet(np.array([0.0, -0.1]), np.array([0.0, 0.0])))
    flows = line_flows(view, sol.v_mag_pu, sol.v_ang_rad)
    assert flows.p_from_pu[0] == pytest.approx(-flows.p_to_pu[0], abs=1e-10)


def test_open_line_carries_nothing(three_bus):
    from dataclasses import replace

    bare = replace(three_bus, units=(three_bus.units[0],))
    view = apply_switch_config(bare, (False,))
    sol = solve_pf(view, injections(bare, flat_scenario(bare, load=0.5)))
    flows = line_flows(view, sol.v_mag_pu, sol.v_ang_rad)
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
        flows = line_flows(view, sol.v_mag_pu, sol.v_ang_rad)
        balance = inj.p_pu.sum() + sol.p_slack_kw / 1e3 - flows.losses_pu.sum()
        assert abs(balance) < 1e-8


@pytest.fixture
def truth_inputs(two_bus):
    """One two-bus view and three loads; the middle one makes NR diverge."""
    view = apply_switch_config(two_bus, ())
    loads = [InjectionSet(np.array([0.0, -p]), np.array([0.0, -q]))
             for p, q in ((0.1, 0.0), (60.0, 5.0), (0.2, 0.05))]
    return view, loads


@pytest.fixture
def solve_calls(monkeypatch):
    """Counts the power flows the truth layer solves, one entry per sample."""
    calls = []
    real = powerflow.solve_pf_batch

    def counting(view, injections):
        calls.extend([view] * len(injections))
        return real(view, injections)

    monkeypatch.setattr(powerflow, "solve_pf_batch", counting)
    return calls


def test_solve_truths_config_major_and_diverged_is_none(truth_inputs, solve_calls):
    view, loads = truth_inputs
    truths = list(solve_truths([view, view], loads.__getitem__, len(loads)))
    assert [(c, s) for c, s, _, _ in truths] == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    assert [(c, s) for c, s, _, sol in truths if sol is None] == [(0, 1), (1, 1)]
    assert all(v is view for _, _, v, _ in truths)
    assert len(solve_calls) == 6


def test_solve_truths_second_pass_reads_cache(truth_inputs, solve_calls):
    view, loads = truth_inputs
    cache = TruthCache()
    first = list(solve_truths([view], loads.__getitem__, 3, cache=cache, tag="t"))
    assert len(solve_calls) == 3
    assert len(cache) == 3
    second = list(solve_truths([view], loads.__getitem__, 3, cache=cache, tag="t"))
    assert len(solve_calls) == 3  # diverged pair included
    assert [(c, s) for c, s, _, _ in second] == [(c, s) for c, s, _, _ in first]
    assert all(a[2] is b[2] and a[3] is b[3] for a, b in zip(first, second))
    assert second[1][3] is None


def test_solve_truths_never_memoises_per_sample_impedances(truth_inputs, solve_calls):
    view, loads = truth_inputs
    cache = TruthCache()
    for _ in range(2):
        truths = list(solve_truths([view], loads.__getitem__, 3, cache=cache,
                                   sample_factors=lambda c, s: np.array([1.0 + 0.1 * s])))
    assert len(solve_calls) == 6
    assert len(cache) == 0
    pair_view = truths[2][2]
    assert pair_view.grid is view.grid
    assert np.array_equal(pair_view.branches.ybus,
                          _reference_view(view, [1.0 + 0.1 * 2]).branches.ybus)


def _reference_view(view, factors):
    """``view``'s switch configuration on a copy of its grid whose line r and
    x were multiplied by ``factors`` one ``Line`` at a time."""
    from dataclasses import replace

    grid = view.grid
    lines = tuple(replace(ln, r_ohm=ln.r_ohm * factors[ln.id], x_ohm=ln.x_ohm * factors[ln.id])
                  for ln in grid.lines)
    return apply_switch_config(replace(grid, lines=lines), view.config)


def _same_bits(a, b):
    """Every PfSolution field of ``a`` and ``b`` is bitwise equal."""
    return all(np.asarray(getattr(a, f)).tobytes() == np.asarray(getattr(b, f)).tobytes()
               for f in ("v_mag_pu", "v_ang_rad", "i_line_amps", "loading_pct",
                         "p_slack_kw", "q_slack_kvar", "iterations", "max_mismatch"))


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
    batch = powerflow.solve_pf_batch(view, inj)
    truths = list(solve_truths([view], inj.__getitem__, len(inj)))
    assert [s for _, s, _, _ in truths] == list(range(len(inj)))
    assert all(_same_bits(a, b) for a, b in zip(single, batch))
    assert all(_same_bits(a, t[3]) for a, t in zip(single, truths))


def test_batched_per_sample_impedances_bitwise_equal(cigre_batch):
    view, inj = cigre_batch
    gen = np.random.default_rng(11)
    factors = 1.0 / gen.uniform(0.9, 1.1, (len(inj), len(view.grid.lines)))
    truths = list(solve_truths([view], inj.__getitem__, len(inj),
                               sample_factors=lambda c, s: factors[s]))
    stacked = view.with_scaled_impedance(factors[:16]).branches
    for s, (_, sc_idx, pair_view, sol) in enumerate(truths):
        assert sc_idx == s
        reference = _reference_view(view, factors[s])
        for name in ("ybus", "yf", "yt"):
            expected = getattr(reference.branches, name).tobytes()
            assert getattr(pair_view.branches, name).tobytes() == expected
            if s < 16:
                assert getattr(stacked, name)[s].tobytes() == expected
        assert _same_bits(sol, solve_pf(reference, inj[s]))


def _cut_view(two_bus):
    """Two-bus view whose only line is out of service but whose load bus is
    not marked dead, so every Jacobian is zero."""
    from gridmon.grid import GridView

    return GridView(grid=two_bus, config=(), line_in_service=np.array([False]))


def test_failed_samples_leave_their_neighbours_unchanged(truth_inputs, two_bus):
    view, loads = truth_inputs
    # one Newton-Raphson over a stacked Ybus whose third sample has its line cut
    ybus = np.stack([view.branches.ybus] * 2 + [_cut_view(two_bus).branches.ybus]
                    + [view.branches.ybus])
    p, q = powerflow._schedule(view, [loads[0], loads[1], loads[0], loads[2]])
    batch = powerflow._solutions(view, *powerflow._newton(ybus, 0, np.array([1]), p, q))
    assert str(batch[1]).startswith("no convergence after 30 iterations")
    assert str(batch[2]) == "singular Jacobian at iteration 1"
    assert isinstance(batch[1], PowerFlowError) and isinstance(batch[2], PowerFlowError)
    assert _same_bits(batch[0], solve_pf(view, loads[0]))
    assert _same_bits(batch[3], solve_pf(view, loads[2]))
    with pytest.raises(PowerFlowError, match="singular Jacobian at iteration 1"):
        solve_pf(_cut_view(two_bus), loads[0])

    # the same through the truth layer, both failures in one chunk
    truths = list(solve_truths([view, _cut_view(two_bus)], loads.__getitem__, 3,
                               pairs=[(0, 0), (0, 1), (1, 0), (0, 2)]))
    assert [sol is None for _, _, _, sol in truths] == [False, True, True, False]
    assert _same_bits(truths[0][3], solve_pf(view, loads[0]))
    assert _same_bits(truths[3][3], solve_pf(view, loads[2]))


def test_mixed_config_pairs_keep_order_and_cache_keys(truth_inputs, solve_calls,
                                                      monkeypatch):
    view, loads = truth_inputs
    views = [view, view.with_scaled_impedance(np.array([1.5]))]
    pairs = [(1, 2), (0, 0), (1, 0), (0, 2), (0, 1), (1, 1)]
    monkeypatch.setattr(powerflow, "TRUTH_CHUNK", 4)  # a chunk boundary mid-list
    cache = TruthCache()
    truths = list(solve_truths(views, loads.__getitem__, 3, pairs=iter(pairs),
                               cache=cache, tag="t"))
    assert [(c, s) for c, s, _, _ in truths] == pairs
    assert set(cache) == {("t", c, s) for c, s in pairs}
    assert len(solve_calls) == len(pairs)
    for c, s, pair_view, sol in truths:
        assert pair_view is views[c]
        assert cache["t", c, s] == (sol, pair_view)
        if s == 1:
            assert sol is None
        else:
            assert _same_bits(sol, solve_pf(views[c], loads[s]))
