import numpy as np
import pytest

from gridmon import powerflow
from gridmon.grid import apply_switch_config
from gridmon.measurements import (FaultInjection, MeasurementError,
                                  MeasurementSpec, accuracy_to_sd, apply_faults,
                                  assumed_sd_overrides, make_spec, resolve_faults,
                                  scale_powers_at, simulate, simulate_batch,
                                  simulate_truths, stacked_positions)
from gridmon.powerflow import solve_pf, solve_truths
from gridmon.scenarios import (DEFAULT_AXES, bus_injections, generate_set,
                               injections)
from gridmon.seeding import STREAM_MEASUREMENT, rng

from conftest import entry_index, flat_scenario, noise_free

CONFIG_0 = (False, False, False, True, True, True)


def m4_spec(grid):
    return make_spec(grid, v_buses=[0, 6, 8, 10], s_buses=[4, 7],
                     s_lines=["1-2", "12-13"])


@pytest.fixture
def cigre_solution(cigre):
    view = apply_switch_config(cigre, CONFIG_0)
    sol = solve_pf(view, injections(cigre, flat_scenario(cigre, load=0.6, dg=0.5)))
    return view, sol


def test_accuracy_classes():
    assert accuracy_to_sd("v_bus") == pytest.approx(0.5 / 3)
    assert accuracy_to_sd("i_line") == pytest.approx(0.5)
    assert accuracy_to_sd("p_bus") == pytest.approx(2.0 / 3)
    assert accuracy_to_sd("q_line") == pytest.approx(2.0 / 3)


def test_accuracy_explicit_class_override():
    with pytest.raises(MeasurementError):
        accuracy_to_sd("frequency")


def test_spec_layout_and_hash(cigre):
    spec = m4_spec(cigre)
    assert len(spec.entries) == 12  # 4 V + 2x(P,Q) bus + 2x(P,Q) line
    assert spec.entries[0].kind == "v_bus"
    again = m4_spec(cigre)
    assert spec.spec_hash == again.spec_hash
    other = make_spec(cigre, v_buses=[0, 6, 8], s_buses=[4, 7],
                      s_lines=["1-2", "12-13"])
    assert other.spec_hash != spec.spec_hash


def test_spec_hash_ignores_sd(cigre):
    spec = m4_spec(cigre)
    resd = MeasurementSpec(entries=tuple(
        type(e)(e.kind, e.location, 9.9) for e in spec.entries))
    assert resd.spec_hash == spec.spec_hash


def test_spec_rejects_unknown_locations(cigre):
    with pytest.raises(MeasurementError):
        make_spec(cigre, v_buses=[99])


def test_unknown_kind_is_measurement_error(cigre, cigre_solution):
    view, sol = cigre_solution
    spec = m4_spec(cigre)
    odd = MeasurementSpec(entries=spec.entries + (type(spec.entries[0])("f_bus", 0, 1.0),))
    with pytest.raises(MeasurementError, match="f_bus"):
        simulate_batch(view, sol.v_mag_pu[None], sol.v_ang_rad[None], odd, 5, [()])


def test_zero_sd_reproduces_truth(cigre, cigre_solution):
    view, sol = cigre_solution
    spec = m4_spec(cigre)
    noiseless = MeasurementSpec(entries=tuple(
        type(e)(e.kind, e.location, 0.0) for e in spec.entries))
    ms = simulate(sol, view, noiseless, seed=5)
    assert np.array_equal(ms.values, noise_free(sol, view, noiseless))
    assert np.array_equal(ms.switch_states, np.array(CONFIG_0, dtype=float))


def test_simulate_deterministic(cigre, cigre_solution):
    view, sol = cigre_solution
    spec = m4_spec(cigre)
    a = simulate(sol, view, spec, seed=5, noise_key=(1, 2))
    b = simulate(sol, view, spec, seed=5, noise_key=(1, 2))
    c = simulate(sol, view, spec, seed=5, noise_key=(1, 3))
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_noise_statistics(cigre, cigre_solution):
    view, sol = cigre_solution
    spec = MeasurementSpec(entries=(
        type(m4_spec(cigre).entries[0])("v_bus", 0, 0.5 / 3),))
    draws = np.array([simulate(sol, view, spec, seed=k).values[0]
                      for k in range(20000)])
    assert draws.mean() == pytest.approx(1.0, abs=1e-4)
    assert draws.std() == pytest.approx(0.5 / 3 / 100, rel=0.05)


def test_bus_power_measurement_equals_net_injection(cigre, cigre_solution):
    view, sol = cigre_solution
    spec = m4_spec(cigre)
    truth = noise_free(sol, view, spec)
    inj = injections(cigre, flat_scenario(cigre, load=0.6, dg=0.5))
    assert truth[entry_index(spec, "p_bus", 4)] == pytest.approx(inj.p_pu[4], abs=1e-8)
    assert truth[entry_index(spec, "q_bus", 7)] == pytest.approx(inj.q_pu[7], abs=1e-8)


def test_i_line_truth_is_from_end_per_unit(cigre, cigre_solution):
    view, sol = cigre_solution
    spec = make_spec(cigre, v_buses=[0], i_lines=["1-2"])
    truth = noise_free(sol, view, spec)
    ln = cigre.line_by_name("1-2")
    assert truth[1] == pytest.approx(
        sol.i_line_amps[ln.id] / cigre.i_base_amps(ln.from_bus))


def zero_noise_readings(view, sol, spec):
    noiseless = MeasurementSpec(entries=tuple(
        type(e)(e.kind, e.location, 0.0) for e in spec.entries))
    return simulate(sol, view, noiseless, seed=1).values, noiseless


def faulted(values, faults, spec):
    """A copy of readings ``([B,] m)`` with ``faults`` applied."""
    out = values.copy()
    apply_faults(out, resolve_faults(faults, spec))
    return out


def test_fault_zero_value_voltage(cigre, cigre_solution):
    view, sol = cigre_solution
    values, spec = zero_noise_readings(view, sol, m4_spec(cigre))
    fault = FaultInjection(kind="zero_value", target_kind="v_bus", buses=(8,))
    out = faulted(values, [fault], spec)
    idx = entry_index(spec, "v_bus", 8)
    assert out[idx] == 0.0
    untouched = np.delete(np.arange(len(spec.entries)), idx)
    assert np.array_equal(out[untouched], values[untouched])


def test_fault_scale_150_percent(cigre, cigre_solution):
    view, sol = cigre_solution
    values, spec = zero_noise_readings(view, sol, m4_spec(cigre))
    fault = FaultInjection(kind="scale_value", target_kind="v_bus", buses=(8,),
                           factor=1.5)
    out = faulted(values, [fault], spec)
    assert out[entry_index(spec, "v_bus", 8)] == pytest.approx(1.5 * sol.v_mag_pu[8])


def test_fault_constant_substitute(cigre, cigre_solution):
    view, sol = cigre_solution
    values, spec = zero_noise_readings(view, sol, m4_spec(cigre))
    fault = FaultInjection(kind="constant_substitute", target_kind="v_bus",
                           buses=(8,), value=1.0)
    assert faulted(values, [fault], spec)[entry_index(spec, "v_bus", 8)] == 1.0


def test_fault_zero_line_pq(cigre, cigre_solution):
    view, sol = cigre_solution
    values, spec = zero_noise_readings(view, sol, m4_spec(cigre))
    line = cigre.line_by_name("1-2").id
    out = faulted(values, [FaultInjection(kind="zero_value", lines=(line,))], spec)
    assert out[entry_index(spec, "p_line", line)] == 0.0
    assert out[entry_index(spec, "q_line", line)] == 0.0


def test_fault_requires_existing_target(cigre):
    with pytest.raises(MeasurementError, match="targets nothing"):
        resolve_faults([FaultInjection(kind="zero_value", target_kind="v_bus",
                                       buses=(5,))], m4_spec(cigre))


def test_power_deviation_restores_stale_reading(cigre):
    # actual power at bus 4 is 70 % of what the meter reports
    view = apply_switch_config(cigre, CONFIG_0)
    scenario = flat_scenario(cigre, load=0.6, dg=0.5)
    actual = bus_injections(cigre, *scale_powers_at(cigre, (4,), 0.7, scenario.p_kw,
                                                    scenario.q_kvar))
    sol = solve_pf(view, actual)
    values, spec = zero_noise_readings(view, sol, m4_spec(cigre))
    out = faulted(values, [FaultInjection(kind="power_deviation", buses=(4,),
                                          factor=0.7)], spec)
    original = injections(cigre, scenario)
    # the reading is PF-consistent, so agreement is limited by the mismatch tol
    assert out[entry_index(spec, "p_bus", 4)] == pytest.approx(
        original.p_pu[4], abs=1e-7)
    # actual injected power is 70 % of the reported value
    assert 0.7 * out[entry_index(spec, "p_bus", 4)] == pytest.approx(
        actual.p_pu[4], abs=1e-7)


def test_power_deviation_composition(cigre):
    scenario = flat_scenario(cigre, load=0.6, dg=0.5)
    p_kw, _ = scale_powers_at(
        cigre, (5, 9, 10), 1.3,
        *scale_powers_at(cigre, (4,), 0.7, scenario.p_kw, scenario.q_kvar))
    for idx, unit in enumerate(cigre.units):
        factor = 0.7 if unit.bus == 4 else 1.3 if unit.bus in (5, 9, 10) else 1.0
        assert p_kw[idx] == pytest.approx(scenario.p_kw[idx] * factor)


def test_wrong_assumed_sd_leaves_values(cigre, cigre_solution):
    view, sol = cigre_solution
    values, spec = zero_noise_readings(view, sol, m4_spec(cigre))
    faults = [FaultInjection(kind="wrong_assumed_sd", buses=(4,), assumed_sd_pct=6.0),
              FaultInjection(kind="wrong_assumed_sd", target_kind="v_bus",
                             buses=(8,), assumed_sd_pct=3.0)]
    assert np.array_equal(faulted(values, faults[:1], spec), values)
    overrides = assumed_sd_overrides(faults, spec)
    assert overrides[entry_index(spec, "p_bus", 4)] == 6.0
    assert overrides[entry_index(spec, "q_bus", 4)] == 6.0
    assert overrides[entry_index(spec, "v_bus", 8)] == 3.0
    assert len(overrides) == 3


@pytest.fixture(scope="module")
def config0_truths(cigre):
    """All 1,100 default-axes scenarios solved on config 0."""
    view = apply_switch_config(cigre, CONFIG_0)
    inj = [injections(cigre, sc) for sc in generate_set(DEFAULT_AXES, cigre, 1, 5)]
    return view, inj, [solve_pf(view, i) for i in inj]


def _bits(a):
    return np.asarray(a).tobytes()


def _reference_readings(sol, view, spec, seed, key):
    """One noisy vector computed from one state alone, with 2-D matrices."""
    v, th = sol.v_mag_pu, sol.v_ang_rad
    vc = v * np.exp(1j * th)
    s_bus = vc * np.conj(view.branches.ybus @ vc)
    i_f = view.branches.yf @ vc
    s_f = vc[view.branches.f_bus] * np.conj(i_f)
    stacked = np.concatenate([v, s_bus.real, s_bus.imag, s_f.real, s_f.imag, np.abs(i_f)])
    truth = stacked[stacked_positions(spec.kind_code, spec.location, view.n_bus,
                                      len(view.grid.lines))]
    noise = rng(seed, STREAM_MEASUREMENT, *key).standard_normal(len(truth))
    return truth * (1.0 + spec.sd_vector() / 100.0 * noise)


def test_simulate_batch_rows_equal_per_pair_simulate(cigre, config0_truths):
    """One config's 1,100 pairs on its shared view: 16,500 complex bus
    voltages, several blocks under the elision bound. Each row equals the
    one-pair call and a reference computed from its state alone."""
    view, _, sols = config0_truths
    assert len(sols) * cigre.n_bus > powerflow.ELISION_ELEMENTS
    spec = make_spec(cigre, v_buses=[0, 6, 8, 10], s_buses=[0, 4, 7],
                     s_lines=["1-2", "12-13"], i_lines=["3-4", "6-7"])
    keys = [(2, s) for s in range(len(sols))]
    batch = simulate_batch(view, np.array([s.v_mag_pu for s in sols]),
                           np.array([s.v_ang_rad for s in sols]), spec, 9, keys)
    assert batch.shape == (len(sols), len(spec.entries))
    for row, sol, key in zip(batch, sols, keys):
        assert _bits(row) == _bits(simulate(sol, view, spec, 9, noise_key=key).values), key
        assert _bits(row) == _bits(_reference_readings(sol, view, spec, 9, key)), key


def test_simulate_truths_per_sample_rows_equal_per_pair_simulate(cigre, config0_truths):
    """A T4-like stream, each pair on its own impedance scale: the stacked
    view's rows, built again in blocks, give each pair's own readings."""
    view, inj, _ = config0_truths
    n = 150  # three blocks
    gen = np.random.default_rng(3)
    factors = 1.0 / gen.uniform(0.8, 1.2, (n, len(cigre.lines)))
    stacked = powerflow.InjectionSet(np.array([i.p_pu for i in inj[:n]]),
                                     np.array([i.q_pu for i in inj[:n]]))
    truths = solve_truths([view], stacked,
                          sample_factors=lambda c, scenarios: factors[scenarios])
    spec = m4_spec(cigre)
    readings = simulate_truths(truths, [view], spec, 4)
    assert readings.shape == (n, len(spec.entries))
    assert not truths.diverged.any()
    assert truths.scale.tobytes() == factors.tobytes()
    for s, row in enumerate(readings):
        pair_view = view.with_scaled_impedance(factors[s])
        sol = solve_pf(pair_view, inj[s])
        assert _bits(row) == _bits(simulate(sol, pair_view, spec, 4, noise_key=(0, s)).values)
        assert _bits(truths.v[s]) == _bits(sol.v_mag_pu)
        assert _bits(truths.loading[s]) == _bits(sol.loading_pct)


def test_resolved_faults_on_a_block_equal_per_vector_injection(cigre, cigre_solution):
    view, sol = cigre_solution
    spec = m4_spec(cigre)
    line = cigre.line_by_name("1-2").id
    faults = [FaultInjection(kind="wrong_assumed_sd", buses=(4,), assumed_sd_pct=6.0),
              FaultInjection(kind="power_deviation", buses=(4, 7), factor=0.7),
              FaultInjection(kind="scale_value", target_kind="v_bus", buses=(8,),
                             factor=1.5),
              FaultInjection(kind="zero_value", lines=(line,)),
              FaultInjection(kind="constant_substitute", target_kind="v_bus",
                             buses=(6, 10), value=1.0)]
    resolved = resolve_faults(faults, spec)
    # value faults first, then power deviations; wrong_assumed_sd changes no reading
    assert [f.kind for f, _ in resolved] == [
        "scale_value", "zero_value", "constant_substitute", "power_deviation"]
    block = np.array([simulate(sol, view, spec, seed=k).values for k in range(5)])
    got = faulted(block, faults, spec)
    for row, values in zip(got, block):
        # a batch of one, each fault resolved and applied on its own
        one = values[None]
        for fault in faults[2:] + faults[:2]:
            one = faulted(one, [fault], spec)
        assert _bits(row) == _bits(one[0])


def test_unknown_fault_kind_is_measurement_error(cigre):
    with pytest.raises(MeasurementError, match="unknown fault kind"):
        resolve_faults([FaultInjection(kind="drift")], m4_spec(cigre))
