import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridmon.scenarios import (DEFAULT_AXES, FIVE_AXES, Scenario, ScenarioAxis,
                               ScenarioError, enumerate_tuples, expand,
                               generate_set, injections)


def test_default_axes_yield_1100_tuples():
    tuples = enumerate_tuples(DEFAULT_AXES)
    assert len(tuples) == 1100  # 10 load x 11 wec x 10 pv


def test_five_axes_tuple_count():
    # 5 x 5 x 6 x 6 x 11 at 20 % steps
    assert len(enumerate_tuples(FIVE_AXES)) == 9900


def test_single_axis_three_point_grid():
    axis = ScenarioAxis("load", 0.0, 100.0, 50.0, 0.0)
    assert enumerate_tuples([axis]) == [(0.0,), (0.5,), (1.0,)]


def test_axis_validation():
    with pytest.raises(ScenarioError):
        ScenarioAxis("load", 100.0, 10.0, 10.0, 10.0)
    with pytest.raises(ScenarioError):
        ScenarioAxis("load", 0.0, 100.0, 0.0, 10.0)
    with pytest.raises(ScenarioError):
        enumerate_tuples([])


def test_noiseless_expand_hits_nominal(three_bus):
    axes = (ScenarioAxis("load", 10, 100, 10, 0.0), ScenarioAxis("pv", 0, 90, 10, 0.0))
    sc = expand((1.0, 1.0), axes, three_bus, seed=42)
    assert sc.p_kw == pytest.approx([500.0, 500.0, 100.0])
    # q follows cos phi 0.97
    assert sc.q_kvar == pytest.approx(sc.p_kw * np.tan(np.arccos(0.97)))


def test_expand_requires_axis_for_every_kind(three_bus):
    axes = (ScenarioAxis("load", 10, 100, 10, 10.0),)
    with pytest.raises(ScenarioError, match="pv"):
        expand((1.0,), axes, three_bus, seed=1)


def test_expand_statistics_match_tuple(cigre):
    # (0.9, 0.7, 0.8): loads ~90 %, wec ~70 %, pv ~80 % of nominal on average
    total = np.zeros(len(cigre.units))
    n = 2000
    for k in range(n):
        sc = expand((0.9, 0.7, 0.8), DEFAULT_AXES, cigre, seed=7, tuple_index=k)
        total += sc.p_kw
    mean_ratio = total / n / np.array([u.p_nom_kw for u in cigre.units])
    for idx, unit in enumerate(cigre.units):
        want = {"load": 0.9, "wec": 0.7, "pv": 0.8}[unit.kind]
        assert mean_ratio[idx] == pytest.approx(want, rel=0.02)


def test_expand_deterministic(cigre):
    a = expand((0.5, 0.5, 0.5), DEFAULT_AXES, cigre, seed=11, repetition=2, tuple_index=5)
    b = expand((0.5, 0.5, 0.5), DEFAULT_AXES, cigre, seed=11, repetition=2, tuple_index=5)
    assert np.array_equal(a.p_kw, b.p_kw)
    assert np.array_equal(a.q_kvar, b.q_kvar)


def test_generate_set_sizes(cigre):
    assert len(generate_set(DEFAULT_AXES, cigre, 1, seed=3)) == 1100
    assert len(generate_set(DEFAULT_AXES, cigre, 3, seed=3)) == 3300
    with pytest.raises(ScenarioError):
        generate_set(DEFAULT_AXES, cigre, 0, seed=3)


def test_repetitions_share_tuples_differ_in_noise(cigre):
    both = generate_set(DEFAULT_AXES, cigre, 2, seed=9)
    first, second = both[:1100], both[1100:]
    again = generate_set(DEFAULT_AXES, cigre, 2, seed=9)
    assert np.array_equal(first[17].p_kw, again[17].p_kw)
    assert first[17].tuple_values == second[17].tuple_values
    assert not np.array_equal(first[17].p_kw, second[17].p_kw)


def test_generated_powers_respect_signs(cigre):
    for sc in generate_set(DEFAULT_AXES, cigre, 1, seed=5)[::131]:
        assert (sc.p_kw >= 0).all()  # loads and generators never flip sign


def test_battery_axis_allows_negative(three_bus):
    from dataclasses import replace
    from gridmon.grid import Unit

    grid = replace(three_bus, units=three_bus.units + (Unit(3, 2, "battery", 200.0),))
    axes = (ScenarioAxis("load", 10, 100, 10, 0.0), ScenarioAxis("pv", 0, 90, 10, 0.0),
            ScenarioAxis("battery", -100, 100, 20, 0.0))
    sc = expand((0.5, 0.5, -1.0), axes, grid, seed=0)
    assert sc.p_kw[3] == pytest.approx(-200.0)
    inj = injections(grid, sc)
    # battery charging shows up as negative injection at bus 2
    assert inj.p_pu[2] < (100 * 0.5 - 500 * 0.5) / 1000 + 1e-12


def test_clamp_frequency_matches_gaussian_tail(cigre):
    # noise sd 25 %: clamping needs a draw below -4 sd
    n_draws = 0
    clamped = 0
    for k in range(3000):
        sc = expand((0.5, 0.1, 0.1), DEFAULT_AXES, cigre, seed=123, tuple_index=k)
        dg = np.array([not u.is_consumer for u in cigre.units])
        n_draws += dg.sum()
        clamped += int((sc.p_kw[dg] == 0.0).sum())
    # expectation ~ 3000 * 9 * 3.17e-5 ~ 0.86; allow a generous Poisson band
    assert clamped <= 8


def test_injections_are_net_per_bus(three_bus):
    from conftest import flat_scenario

    sc = flat_scenario(three_bus, load=1.0, dg=1.0)
    inj = injections(three_bus, sc)
    assert inj.p_pu[0] == 0.0
    assert inj.p_pu[1] == pytest.approx(-0.5)
    assert inj.p_pu[2] == pytest.approx((-500 + 100) / 1000)


@settings(max_examples=30, deadline=None)
@given(reps=st.integers(min_value=1, max_value=3),
       step=st.sampled_from([20.0, 25.0, 50.0]))
def test_set_size_is_reps_times_grid_product(reps, step):
    from gridmon.grid import Bus, GridModel, Line, Unit

    grid = GridModel(
        buses=(Bus(0, "slack", 20.0), Bus(1, "pq", 20.0)),
        lines=(Line(0, 0, 1, 1.0, 2.0, 0.0, 100.0),),
        switches=(),
        units=(Unit(0, 1, "load", 100.0), Unit(1, 1, "pv", 50.0)),
    )
    axes = (ScenarioAxis("load", 10, 100, step, 5.0),
            ScenarioAxis("pv", 0, 100, step, 5.0))
    expected = len(axes[0].grid_values()) * len(axes[1].grid_values()) * reps
    assert len(generate_set(axes, grid, reps, seed=1)) == expected


def test_scenario_powers_finite(cigre):
    for sc in generate_set(DEFAULT_AXES, cigre, 1, seed=77)[::211]:
        assert np.isfinite(sc.p_kw).all()
        assert np.isfinite(sc.q_kvar).all()
