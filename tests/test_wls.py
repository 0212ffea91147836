from dataclasses import replace

import numpy as np
import pytest

from gridmon.evaluation import load_catalog
from gridmon.grid import Bus, GridModel, Line, Switch, Unit, apply_switch_config
from gridmon.measurements import (BUS_KINDS, KIND_CODE, MeasurementSet,
                                  MeasurementSpec, make_spec, simulate,
                                  stacked_positions)
from gridmon.powerflow import ELISION_ELEMENTS, solve_pf
from gridmon.scenarios import injections
from gridmon import wls
from gridmon.wls import (MAX_ITERATIONS, ObservabilityError, build_pseudo, estimate,
                         estimate_batch, pseudo_batch)

from conftest import entry_index, flat_scenario, noise_free

CONFIG_0 = (False, False, False, True, True, True)


def noiseless_spec(spec):
    return MeasurementSpec(entries=tuple(
        type(e)(e.kind, e.location, 0.0) for e in spec.entries))


def exact_measurements(grid, view, sol, spec):
    spec0 = noiseless_spec(spec)
    values = noise_free(sol, view, spec0)
    return MeasurementSet(values=values,
                          switch_states=np.array(view.config, dtype=float),
                          spec_hash=spec0.spec_hash), spec0


@pytest.fixture
def cigre_case(cigre):
    view = apply_switch_config(cigre, CONFIG_0)
    scenario = flat_scenario(cigre, load=0.6, dg=0.5)
    sol = solve_pf(view, injections(cigre, scenario))
    return view, scenario, sol


def test_noiseless_fully_measured_recovers_truth(cigre, cigre_case):
    view, _, sol = cigre_case
    spec = make_spec(cigre, v_buses=range(15), s_buses=range(15))
    ms, spec0 = exact_measurements(cigre, view, sol, spec)
    est = estimate(view, ms, spec0)
    assert est.converged
    assert np.max(np.abs(est.v_mag - sol.v_mag_pu)) < 1e-6
    assert np.max(np.abs(est.v_ang - sol.v_ang_rad)) < 1e-6


def test_objective_non_increasing_on_clean_case(cigre, cigre_case):
    view, _, sol = cigre_case
    spec = make_spec(cigre, v_buses=range(15), s_buses=range(15))
    ms = simulate(sol, view, spec, seed=4)
    est = estimate(view, ms, spec)
    assert est.converged
    diffs = np.diff(est.objective_history)
    assert (diffs <= 1e-6 * max(est.objective_history)).all()


def test_estimated_state_reproduces_measurements(cigre, cigre_case):
    # h(x_hat) within 3 sigma of z for nearly all entries on clean data
    view, _, sol = cigre_case
    spec = make_spec(cigre, v_buses=range(15), s_buses=range(15),
                     s_lines=["1-2", "4-5", "8-9", "3-8", "6-7"])
    ms = simulate(sol, view, spec, seed=11)
    est = estimate(view, ms, spec)
    ms_hat, spec0 = exact_measurements(
        cigre, view,
        type(sol)(v_mag_pu=est.v_mag, v_ang_rad=est.v_ang,
                  i_line_amps=sol.i_line_amps, loading_pct=sol.loading_pct,
                  p_slack_kw=0.0, q_slack_kvar=0.0, iterations=0, max_mismatch=0.0),
        spec)
    sd_abs = spec.sd_vector() / 100.0 * np.maximum(np.abs(ms.values), 1e-3)
    within = np.abs(ms_hat.values - ms.values) <= 3.0 * sd_abs
    assert within.mean() >= 0.99


def test_build_pseudo_empty_when_fully_measured(cigre, cigre_case):
    view, _, sol = cigre_case
    spec = make_spec(cigre, v_buses=[0], s_buses=range(15))
    ms = simulate(sol, view, spec, seed=2)
    pseudo = build_pseudo(cigre, ms, spec)
    assert pseudo.bus.size == pseudo.value.size == pseudo.sd.size == 0


def test_build_pseudo_balance_identity(cigre, cigre_case):
    view, _, sol = cigre_case
    spec = make_spec(cigre, v_buses=[0, 6, 8, 10], s_buses=[4, 7],
                     s_lines=["1-2", "12-13"])
    ms = simulate(sol, view, spec, seed=3)
    pseudo = build_pseudo(cigre, ms, spec)
    assert len(pseudo.value) == 24  # 12 unmeasured buses x (P, Q)
    p_pseudo = sum(pseudo.value[pseudo.kind == KIND_CODE["p_bus"]])
    p_measured = sum(float(ms.values[entry_index(spec, "p_bus", b)]) for b in (4, 7))
    p_slack = sum(float(ms.values[i]) for i in spec.indices("p_line"))
    assert p_pseudo + p_measured + p_slack == pytest.approx(0.0, abs=1e-9)


def test_build_pseudo_even_split_between_identical_loads(three_bus, cigre):
    view = apply_switch_config(three_bus, (True,))
    scenario = flat_scenario(three_bus, load=0.8, dg=0.0)
    sol = solve_pf(view, injections(three_bus, scenario))
    spec = make_spec(three_bus, v_buses=[0], s_buses=[0])
    ms, spec0 = exact_measurements(three_bus, view, sol, spec)
    pseudo = build_pseudo(three_bus, ms, spec0)
    p_rows = pseudo.kind == KIND_CODE["p_bus"]
    p1 = np.flatnonzero(p_rows & (pseudo.bus == 1))[0]
    p2 = np.flatnonzero(p_rows & (pseudo.bus == 2))[0]
    # identical installed load at both buses: equal share of the remainder
    # (bus 2 additionally carries its PV estimate, flagged as fallback)
    assert pseudo.fallback[p2]  # no measured pv anywhere
    assert pseudo.value[p1] == pytest.approx(pseudo.value[p2] - 0.5 * 0.1, abs=1e-6)


def test_pseudo_sd_floor(cigre, cigre_case):
    view, _, sol = cigre_case
    spec = make_spec(cigre, v_buses=[0, 6, 8, 10], s_buses=[4, 7],
                     s_lines=["1-2", "12-13"])
    ms = simulate(sol, view, spec, seed=3)
    pseudo = build_pseudo(cigre, ms, spec)
    zero_injection = pseudo.bus == 2
    assert zero_injection.any()
    assert np.all(pseudo.sd[zero_injection] >= 1e-3)


def test_tighter_duplicate_measurement_dominates(two_bus):
    view = apply_switch_config(two_bus, ())
    sol = solve_pf(view, injections(two_bus, flat_scenario(two_bus, load=0.5)))
    base = make_spec(two_bus, v_buses=[0], s_buses=[1])
    # add two conflicting extra V readings at bus 1 with unequal confidence
    extra_tight = type(base.entries[0])("v_bus", 1, 0.1)
    extra_loose = type(base.entries[0])("v_bus", 1, 5.0)
    spec = MeasurementSpec(entries=base.entries + (extra_tight, extra_loose))
    truth = noise_free(sol, view, spec)
    values = truth.copy()
    tight_idx, loose_idx = len(base.entries), len(base.entries) + 1
    values[tight_idx] = truth[tight_idx] - 0.01
    values[loose_idx] = truth[loose_idx] + 0.01
    ms = MeasurementSet(values=values, switch_states=np.zeros(0),
                        spec_hash=spec.spec_hash)
    est = estimate(view, ms, spec)
    # the estimate lands on the tightly weighted (lower) side of the truth
    assert est.v_mag[1] < truth[tight_idx] - 0.005


def test_unobservable_raises(two_bus):
    view = apply_switch_config(two_bus, ())
    sol = solve_pf(view, injections(two_bus, flat_scenario(two_bus, load=0.5)))
    spec = make_spec(two_bus, s_buses=[1])  # no voltage anchor anywhere
    ms = simulate(sol, view, spec, seed=1)
    with pytest.raises(ObservabilityError):
        estimate(view, ms, spec)


def test_nonconvergence_is_flagged_not_raised(cigre, cigre_case, monkeypatch):
    view, _, sol = cigre_case
    spec = make_spec(cigre, v_buses=[0, 6, 8, 10], s_buses=[4, 7],
                     s_lines=["1-2", "12-13"])
    ms = simulate(sol, view, spec, seed=3)
    monkeypatch.setattr("gridmon.wls.MAX_ITERATIONS", 1)
    est = estimate(view, ms, spec)
    assert not est.converged
    assert est.iterations == 1


def test_batch_is_bitwise_per_sample_estimates(cigre, cigre_case):
    """One batch of 70 M4 samples, more than one block (at most 64 samples
    each), equals one estimate per sample in every field. Zeroing bus 8's
    voltage reading keeps samples 5 and 66 iterating to the limit; a NaN
    reading fails sample 6 alone."""
    view, _, sol = cigre_case
    spec = load_catalog(cigre).case("M4").spec(cigre)
    assert 70 > (ELISION_ELEMENTS - 1) // (len(cigre.lines) * cigre.n_bus)
    sets = [simulate(sol, view, spec, seed=seed) for seed in range(70)]
    v8 = entry_index(spec, "v_bus", 8)
    for b, reading in ((5, 0.0), (6, np.nan), (66, 0.0)):
        values = sets[b].values.copy()
        values[v8] = reading
        sets[b] = replace(sets[b], values=values)

    batch = estimate_batch(view, np.array([ms.values for ms in sets]), spec)
    assert len(batch.status) == len(sets)
    assert batch.status[6] == wls.NON_FINITE_STEP
    assert np.isnan(batch.v[6]).all() and np.isnan(batch.objective[6])
    with pytest.raises(ObservabilityError):
        estimate(view, sets[6], spec)
    for b, ms in enumerate(sets):
        if b == 6:
            continue
        single = estimate(view, ms, spec)
        for field, name in (("v", "v_mag"), ("th", "v_ang"), ("loading", "loading_pct")):
            got, want = getattr(batch, field)[b], getattr(single, name)
            assert got.tobytes() == want.tobytes(), (b, field)
        n = batch.iterations[b]
        history = batch.objectives[b]
        assert np.isnan(history[n + 1:]).all() and not np.isnan(history[:n + 1]).any(), b
        assert (batch.status[b] == wls.CONVERGED, n, float(batch.objective[b]),
                tuple(history[:n + 1].tolist())) == (
            single.converged, single.iterations, single.objective,
            single.objective_history), b
        assert batch.status[b] == (wls.ITERATION_LIMIT if b in (5, 66) else wls.CONVERGED), b
    assert batch.iterations[5] == batch.iterations[66] == MAX_ITERATIONS


def test_each_status_code_maps_to_its_one_sample_outcome(cigre, cigre_case, two_bus):
    """A batch reaches every status code; ``estimate`` flags the iteration
    limit and raises the two failures with their own messages."""
    view, _, sol = cigre_case
    spec = load_catalog(cigre).case("M4").spec(cigre)
    v8 = entry_index(spec, "v_bus", 8)
    sets = [simulate(sol, view, spec, seed=seed) for seed in range(3)]
    for b, reading in ((1, 0.0), (2, np.nan)):
        values = sets[b].values.copy()
        values[v8] = reading
        sets[b] = replace(sets[b], values=values)
    batch = estimate_batch(view, np.array([ms.values for ms in sets]), spec)
    assert batch.status.tolist() == [wls.CONVERGED, wls.ITERATION_LIMIT,
                                     wls.NON_FINITE_STEP]
    assert estimate(view, sets[0], spec).converged
    assert not estimate(view, sets[1], spec).converged
    with pytest.raises(ObservabilityError, match="^non-finite state update$"):
        estimate(view, sets[2], spec)

    # no voltage anchor anywhere: the two-bus gain matrix is singular
    view2 = apply_switch_config(two_bus, ())
    sol2 = solve_pf(view2, injections(two_bus, flat_scenario(two_bus, load=0.5)))
    spec2 = make_spec(two_bus, s_buses=[1])
    ms2 = simulate(sol2, view2, spec2, seed=1)
    single = estimate_batch(view2, ms2.values[None], spec2)
    assert single.status.tolist() == [wls.SINGULAR_GAIN]
    assert single.iterations.tolist() == [1]
    with pytest.raises(ObservabilityError, match="^singular gain matrix$"):
        estimate(view2, ms2, spec2)


# the second layout adds flows on 6-7 and a current on 11-4, both open in CONFIG_0
@pytest.mark.parametrize("s_lines, i_lines, open_lines", [
    (["1-2"], ["12-13"], ()),
    (["1-2", "6-7"], ["12-13", "11-4"], ("6-7", "11-4")),
], ids=["closed_lines", "open_lines"])
def test_jacobian_matches_finite_differences(cigre, cigre_case, s_lines, i_lines,
                                             open_lines):
    view, _, sol = cigre_case
    spec = make_spec(cigre, v_buses=[0, 6], s_buses=[4, 7],
                     s_lines=s_lines, i_lines=i_lines)
    ms = simulate(sol, view, spec, seed=9)
    from gridmon.wls import RowPlan, measurement_model

    pseudo = build_pseudo(cigre, ms, spec)
    kind = np.concatenate([spec.kind_code, pseudo.kind])
    location = np.concatenate([spec.location, pseudo.bus])
    plan = RowPlan.for_rows(view, kind, location)
    assert plan.pos.tolist() == stacked_positions(kind, location, cigre.n_bus,
                                                  len(cigre.lines)).tolist()

    rng = np.random.default_rng(0)
    v = 1.0 + 0.02 * rng.normal(size=15)
    th = 0.01 * rng.normal(size=15)
    th[0] = 0.0
    h, jac = measurement_model(view, plan, v, th)
    open_ids = [cigre.line_by_name(name).id for name in open_lines]
    assert all(not view.line_in_service[lid] for lid in open_ids)
    on_open = np.flatnonzero((kind >= len(BUS_KINDS)) & np.isin(location, open_ids))
    assert len(on_open) == (3 if open_lines else 0)  # P and Q on 6-7, I on 11-4
    assert np.all(h[on_open] == 0.0)
    assert np.all(jac[on_open] == 0.0)

    eps = 1e-7
    numeric = np.zeros_like(jac)
    for col in range(plan.n_state):
        v_hi, th_hi = v.copy(), th.copy()
        v_lo, th_lo = v.copy(), th.copy()
        if col < len(plan.non_slack):
            bus = plan.non_slack[col]
            th_hi[bus] += eps
            th_lo[bus] -= eps
        else:
            bus = plan.mag_buses[col - len(plan.non_slack)]
            v_hi[bus] += eps
            v_lo[bus] -= eps
        h_hi, _ = measurement_model(view, plan, v_hi, th_hi)
        h_lo, _ = measurement_model(view, plan, v_lo, th_lo)
        numeric[:, col] = (h_hi - h_lo) / (2 * eps)
    assert np.max(np.abs(jac - numeric)) < 1e-5


def test_row_plan_rows_equal_one_state_calls(cigre):
    """The plan, laid out once, places every row of a stack of states as a
    one-state call places it: each state's h and Jacobian equal its own
    call's bitwise, rows on an open line (6-7 in CONFIG_0) included."""
    from gridmon.wls import RowPlan, measurement_model

    view = apply_switch_config(cigre, CONFIG_0)
    assert not view.line_in_service[cigre.line_by_name("6-7").id]
    spec = make_spec(cigre, v_buses=[0, 6], s_buses=[4, 7], s_lines=["1-2", "6-7"],
                     i_lines=["12-13", "6-7"])
    # substitute-like P/Q rows at every other feeder bus, in the estimator's order
    others = [b for b in range(1, cigre.n_bus) if b not in (4, 7)]
    kind = np.concatenate([spec.kind_code, np.tile([KIND_CODE["p_bus"],
                                                    KIND_CODE["q_bus"]], len(others))])
    location = np.concatenate([spec.location, np.repeat(others, 2)])
    plan = RowPlan.for_rows(view, kind, location)
    gen = np.random.default_rng(3)
    v = 1.0 + 0.02 * gen.standard_normal((9, cigre.n_bus))
    th = 0.01 * gen.standard_normal((9, cigre.n_bus))
    h, jac = measurement_model(view, plan, v, th)
    assert jac.shape == (9, len(kind), plan.n_state) and jac.flags.c_contiguous
    for b in range(len(v)):
        h_b, jac_b = measurement_model(view, plan, v[b], th[b])
        assert h[b].tobytes() == h_b.tobytes()
        assert jac[b].tobytes() == jac_b.tobytes()
    open_rows = np.flatnonzero((kind >= len(BUS_KINDS))
                               & (location == cigre.line_by_name("6-7").id))
    assert len(open_rows) == 3 and np.all(jac[:, open_rows] == 0.0)


@pytest.fixture(scope="module")
def config0_states(cigre):
    """The truths of 200 default-axes scenarios (seed 5) on config 0."""
    from gridmon.powerflow import solve_truths
    from gridmon.scenarios import DEFAULT_AXES, bus_injections, generate_set, unit_powers

    view = apply_switch_config(cigre, load_catalog(cigre).switch_configs[0])
    scenarios = generate_set(DEFAULT_AXES, cigre, 1, 5)[:200]
    truths = solve_truths([view], bus_injections(cigre, *unit_powers(scenarios)))
    assert not truths.diverged.any()
    return view, truths.v, truths.th


@pytest.mark.parametrize("case_id", [f"M{k}" for k in range(10)] + [f"A{k}" for k in range(4)])
def test_h_at_the_true_state_is_the_noise_free_reading(cigre, config0_states, case_id):
    """WLS models the instruments that made the readings: its h(x) at the
    true states equals the noise-free simulated readings bitwise, currents
    (the A layouts) included."""
    from gridmon.measurements import simulate_batch
    from gridmon.wls import RowPlan, measurement_model

    view, v, th = config0_states
    spec = noiseless_spec(load_catalog(cigre).case(case_id).spec(cigre))
    keys = np.column_stack([np.zeros(len(v), dtype=int), np.arange(len(v))])
    readings = simulate_batch(view, v, th, spec, 5, keys)
    plan = RowPlan.for_rows(view, spec.kind_code, spec.location)
    h, _ = measurement_model(view, plan, v, th)
    assert h.tobytes() == readings.tobytes()


@pytest.fixture
def dead_end():
    """Slack, a load bus, and a unit-less bus behind a switch on line 1-2."""
    return GridModel(
        buses=(Bus(0, "slack", 20.0), Bus(1, "pq", 20.0), Bus(2, "pq", 20.0)),
        lines=(
            Line(0, 0, 1, r_ohm=2.0, x_ohm=4.0, b_us=10.0, rating_amps=145.0),
            Line(1, 1, 2, r_ohm=2.0, x_ohm=4.0, b_us=10.0, rating_amps=145.0),
        ),
        switches=(Switch(0, 1, closed=True),),
        units=(Unit(0, 1, "load", p_nom_kw=500.0),),
        s_base_mva=1.0,
    )


def test_rows_at_dead_bus_are_dropped(dead_end):
    view = apply_switch_config(dead_end, (False,))
    assert view.dead_buses == {2}
    sol = solve_pf(view, injections(dead_end, flat_scenario(dead_end, load=0.8)))
    live = make_spec(dead_end, v_buses=[0, 1], s_buses=[1], s_lines=[0])
    full = make_spec(dead_end, v_buses=[0, 1, 2], s_buses=[1, 2], s_lines=[0])
    ms_full = simulate(sol, view, full, seed=6)
    at_dead = np.flatnonzero((full.kind_code < len(BUS_KINDS)) & (full.location == 2))
    assert len(at_dead) == 3  # V, P and Q at the dead bus
    values = ms_full.values.copy()
    values[at_dead] = [0.5, 3.0, -2.0]  # readings no live state could explain
    ms_live = MeasurementSet(values=np.delete(values, at_dead),
                             switch_states=ms_full.switch_states,
                             spec_hash=live.spec_hash)

    with_dead = estimate(view, replace(ms_full, values=values), full)
    without = estimate(view, ms_live, live)
    assert with_dead.converged and without.converged
    assert with_dead.v_mag.tobytes() == without.v_mag.tobytes()
    assert with_dead.v_ang.tobytes() == without.v_ang.tobytes()
    assert with_dead.objective == without.objective
    assert (with_dead.v_mag[2], with_dead.v_ang[2]) == (1.0, 0.0)


def test_m4_slack_balance_gives_feeder_buses_a_tenth_of_their_load(cigre):
    """Pins the pseudo-load heuristic, not a claim that it is right.

    Without a slack reading, M4 takes the slack import to be the sum of the
    flows on 1-2 and 12-13 and spreads it over every unmeasured load bus,
    buses 1 and 12 included, although they sit upstream of both lines. So
    bus 3 gets about a tenth of its true load; M9 reads the slack and gets
    about all of it.
    """
    catalog = load_catalog(cigre)
    view = apply_switch_config(cigre, catalog.switch_configs[0])
    scenario = flat_scenario(cigre, load=1.0, dg=0.0)
    sol = solve_pf(view, injections(cigre, scenario))
    true_p3 = injections(cigre, scenario).p_pu[3]
    for case_id, band in (("M4", (0.05, 0.2)), ("M9", (0.9, 1.1))):
        ms, spec0 = exact_measurements(cigre, view, sol, catalog.case(case_id).spec(cigre))
        pseudo = build_pseudo(cigre, ms, spec0)
        p3 = pseudo.value[(pseudo.kind == KIND_CODE["p_bus"]) & (pseudo.bus == 3)]
        assert len(p3) == 1
        assert band[0] <= p3[0] / true_p3 <= band[1], (case_id, p3[0] / true_p3)


def test_zeroed_voltage_reading_weighs_as_a_half_pu_reading(cigre, cigre_case):
    from gridmon.measurements import accuracy_to_sd

    view, _, sol = cigre_case
    spec = make_spec(cigre, v_buses=[0, 6, 8, 10], s_buses=[4, 7],
                     s_lines=["1-2", "12-13"])
    ms = simulate(sol, view, spec, seed=3)
    i = entry_index(spec, "v_bus", 8)
    zeroed = ms.values.copy()
    zeroed[i] = 0.0
    clean = estimate(view, ms, spec).objective_history[0]
    faulted = estimate(view, replace(ms, values=zeroed), spec).objective_history[0]
    # at the flat start only bus 8's voltage row differs; the zeroed reading's
    # SD is the class SD of a 0.5 pu reading, no longer a 1e-6 pu floor
    sd_clean = accuracy_to_sd("v_bus") / 100.0 * ms.values[i]
    sd_zeroed = accuracy_to_sd("v_bus") / 100.0 * 0.5
    expected = 1.0 / sd_zeroed**2 - (ms.values[i] - 1.0) ** 2 / sd_clean**2
    assert faulted - clean == pytest.approx(expected, rel=1e-9)


def _reference_pseudo(grid, values, spec):
    """Substitute values of one vector, summed as a per-vector loop sums
    them: per-bus sums by ``np.bincount`` in unit order, scalar totals by
    Python's ``sum`` in bus order. Returns (bus, P, Q) per substitute."""
    units = grid.unit_table
    n, slack, s_base_kw = grid.n_bus, grid.slack_bus, grid.s_base_mva * 1e3
    p_idx = spec.indices("p_bus")
    read_buses, first = np.unique(spec.location[p_idx], return_index=True)
    p_meas = np.zeros(n)
    p_meas[read_buses] = values[p_idx][first]
    measured = np.isin(np.arange(n), read_buses)
    feeder = np.arange(n) != slack
    unmeasured = feeder & ~measured
    dg = units.sign > 0
    seen = dg & (feeder & measured)[units.bus]
    n_kind = len(units.kinds)
    no_kind = np.bincount(units.kind[seen], minlength=n_kind) == 0
    inj = np.bincount(units.kind[seen], weights=p_meas[units.bus[seen]], minlength=n_kind)
    nom = np.bincount(units.kind[seen], weights=units.p_nom_kw[seen] / s_base_kw,
                      minlength=n_kind)
    rel = np.clip(np.divide(inj, nom, out=np.full(n_kind, 0.5), where=~no_kind), 0.0, 1.0)
    dg_part = np.where(dg, rel[units.kind] * units.p_nom_kw / s_base_kw, 0.0)
    p_dg = np.bincount(units.bus, weights=dg_part, minlength=n)
    q_dg = np.bincount(units.bus, weights=dg_part * units.tan_phi, minlength=n)
    load_nom = np.bincount(units.bus, weights=np.where(dg, 0.0, units.p_nom_kw),
                           minlength=n) / s_base_kw
    loads = np.flatnonzero(~dg)
    load_buses, first_load = np.unique(units.bus[loads], return_index=True)
    load_tan = np.zeros(n)
    load_tan[load_buses] = units.tan_phi[loads[first_load]]
    line_idx = spec.indices("p_line")
    p_slack = (p_meas[slack] if measured[slack]
               else sum(values[line_idx]) if line_idx else None)
    total = sum(load_nom[unmeasured])
    if p_slack is not None and total > 0:
        remainder = -p_slack - sum(p_meas[feeder & measured]) - sum(p_dg[unmeasured])
        p_load = np.where(load_nom > 0, remainder * load_nom / total, 0.0)
    else:
        p_load = np.where(load_nom > 0, -0.5 * load_nom, 0.0)
    buses = np.flatnonzero(unmeasured)
    return buses, (p_load + p_dg)[buses], (q_dg + p_load * load_tan)[buses]


def _pseudo_rows_equal_per_vector(grid, spec, sets):
    """Each row of one batch equals the one-vector call and the per-vector
    reference, bit for bit."""
    batch = pseudo_batch(grid, np.array([ms.values for ms in sets]), spec)
    assert batch.value.shape == batch.sd.shape == (len(sets), len(batch.bus))
    for b, ms in enumerate(sets):
        single = build_pseudo(grid, ms, spec)
        assert single.value.tobytes() == batch.value[b].tobytes(), b
        assert single.sd.tobytes() == batch.sd[b].tobytes(), b
        for field in ("kind", "bus", "fallback"):
            assert np.array_equal(getattr(single, field), getattr(batch, field)), field
        buses, p, q = _reference_pseudo(grid, ms.values, spec)
        assert np.array_equal(batch.bus[::2], buses)
        assert batch.value[b, ::2].tobytes() == p.tobytes(), b
        assert batch.value[b, 1::2].tobytes() == q.tobytes(), b
    return batch


@pytest.mark.parametrize("layout", ["M4", "M9", "no_line_flows"])
def test_pseudo_batch_rows_equal_per_vector(cigre, layout):
    """M4 balances on its feeder-head flows, M9 on its slack reading, and a
    layout without line flows falls back to half the nominal load."""
    catalog = load_catalog(cigre)
    spec = (make_spec(cigre, v_buses=[0, 6], s_buses=[4, 7]) if layout == "no_line_flows"
            else catalog.case(layout).spec(cigre))
    sets = []
    for ci, config in enumerate(catalog.switch_configs):
        view = apply_switch_config(cigre, config)
        for k, (load, dg) in enumerate(((0.3, 0.0), (0.6, 0.5), (1.0, 1.0))):
            sol = solve_pf(view, injections(cigre, flat_scenario(cigre, load, dg)))
            sets.append(simulate(sol, view, spec, seed=7, noise_key=(ci, k)))
    batch = _pseudo_rows_equal_per_vector(cigre, spec, sets)
    slack_read = spec.location[spec.kind_code == KIND_CODE["p_bus"]].tolist()
    assert (0 in slack_read) == (layout == "M9")
    has_load = np.isin(batch.bus, cigre.unit_table.bus[cigre.unit_table.sign < 0])
    assert np.all(batch.fallback[has_load]) == (layout == "no_line_flows")


def test_pseudo_batch_rows_equal_per_vector_on_dead_bus_view(dead_end):
    view = apply_switch_config(dead_end, (False,))
    spec = make_spec(dead_end, v_buses=[0, 1], s_lines=[0])
    sets = [simulate(solve_pf(view, injections(dead_end, flat_scenario(dead_end, load))),
                     view, spec, seed=3, noise_key=(k,))
            for k, load in enumerate((0.2, 0.5, 0.8, 1.0))]
    batch = _pseudo_rows_equal_per_vector(dead_end, spec, sets)
    assert batch.bus.tolist() == [1, 1, 2, 2]
    assert np.all(batch.value[:, 2:] == 0.0)  # the dead bus carries no unit


def test_row_reduction_sums_each_row_as_np_sum():
    """The Gauss-Newton objectives of a block are one ``np.add.reduce(terms,
    1)``; each row's sum is bitwise what ``np.sum`` gives that row alone, so
    an objective does not depend on its block."""
    gen = np.random.default_rng(4)
    for _ in range(80):
        terms = gen.exponential(size=(int(gen.integers(1, 65)), int(gen.integers(5, 301))))
        terms *= 10.0 ** gen.integers(-6, 7, size=terms.shape)
        rows = np.add.reduce(terms, 1)
        assert rows.tobytes() == np.array([np.sum(row) for row in terms]).tobytes()
