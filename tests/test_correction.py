import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridmon.correction import MIN_VOLTAGE_ENTRIES, _screen, correct_rows
from gridmon.measurements import MeasurementEntry, MeasurementSpec


def spec_with_voltages(n_v, extra_power=2):
    entries = [MeasurementEntry("v_bus", i, 0.5 / 3) for i in range(n_v)]
    for k in range(extra_power):
        entries.append(MeasurementEntry("p_bus", k, 2 / 3))
    return MeasurementSpec(entries=tuple(entries))


def make_set(voltages, powers=(0.5, -0.25)):
    spec = spec_with_voltages(len(voltages), extra_power=len(powers))
    return np.array(list(voltages) + list(powers)), spec


def screened(values, spec):
    """``values`` through the screen itself, as ``correct_rows`` screens a
    row; it skips a row whose voltages all lie in the plausibility band, so
    a clean row here checks the screen's own band gate."""
    out = values.copy()
    _screen(out, spec.indices("v_bus"))
    return out


def test_dropout_detected_and_replaced():
    # {1.00, 1.01, 0.99, 0.00}: SD drops from ~0.433 to ~0.0082 on removal
    values, spec = make_set([1.00, 1.01, 0.99, 0.00])
    out = screened(values, spec)
    assert np.flatnonzero(out != values).tolist() == [3]
    assert out[3] == pytest.approx(1.00)


def test_tight_cluster_untouched():
    values, spec = make_set([1.00, 1.00, 1.00])
    assert np.array_equal(screened(values, spec), values)


def test_150_percent_reading_replaced():
    # {0.98, 0.99, 1.00, 1.47}: outlier at the top, replaced by the mean 0.99
    values, spec = make_set([0.98, 0.99, 1.00, 1.47])
    out = screened(values, spec)
    assert np.flatnonzero(out != values).tolist() == [3]
    assert out[3] == pytest.approx(0.99)


def test_plausible_spread_never_flagged():
    # deep feeder sag: large but legitimate spread must not trigger
    values, spec = make_set([1.00, 0.915, 0.912, 0.910])
    assert np.array_equal(screened(values, spec), values)


def test_non_voltage_entries_bit_identical():
    values, spec = make_set([1.00, 1.01, 0.99, 0.00], powers=(12.5, -3.125, 0.7))
    assert np.array_equal(screened(values, spec)[4:], values[4:])


def test_fewer_than_three_voltages_skipped():
    values, spec = make_set([0.0, 1.0])
    assert len(spec.indices("v_bus")) < MIN_VOLTAGE_ENTRIES
    block = values[None].copy()
    correct_rows(block, spec)
    assert np.array_equal(block[0], values)


def test_idempotent_on_fault_case():
    values, spec = make_set([1.00, 1.01, 0.99, 0.00])
    first = screened(values, spec)
    assert np.array_equal(screened(first, spec), first)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.6), min_size=3, max_size=8))
def test_idempotence_property(voltages):
    values, spec = make_set(voltages, powers=())
    first = screened(values, spec)
    assert np.array_equal(screened(first, spec), first)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=0.85, max_value=1.1), min_size=3, max_size=8))
def test_plausible_values_always_kept(voltages):
    values, spec = make_set(voltages, powers=())
    assert np.array_equal(screened(values, spec), values)


def test_two_outliers_both_replaced_when_separable():
    # one dropout at the bottom, one 150 % reading at the top of five values
    values, spec = make_set([0.0, 0.99, 1.00, 1.01, 1.50])
    assert np.flatnonzero(screened(values, spec) != values).tolist() == [0, 4]


def test_correct_rows_screens_a_mixed_block_as_per_row_correction():
    """Clean rows, rows with a dropout, a 150 % reading or two faults, and
    rows with a NaN voltage: each row of the block comes out bitwise as the
    screen leaves it alone."""
    spec = spec_with_voltages(5)
    gen = np.random.default_rng(8)
    block = np.column_stack([1.0 + 0.02 * gen.standard_normal((40, 5)),
                             gen.standard_normal((40, 2))])
    block[3, 1] = 0.0
    block[7, 4] = 1.5
    block[11, [0, 2]] = (0.0, 1.49)
    block[15, 3] = np.nan
    block[19, [0, 1, 2, 3, 4]] = np.nan
    block[23, 2] = 0.8  # at the band's edges: plausible
    block[23, 4] = 1.2
    expected = np.array([screened(row, spec) for row in block])
    got = block.copy()
    correct_rows(got, spec)
    assert got.tobytes() == expected.tobytes()
    changed = np.flatnonzero(np.any((got != block) & ~(np.isnan(got) & np.isnan(block)),
                                    axis=1))
    assert {3, 7, 11} <= set(changed.tolist())
