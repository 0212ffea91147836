import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridmon.correction import KEPT, REPLACED, correct_rows, correct_voltages
from gridmon.measurements import MeasurementEntry, MeasurementSet, MeasurementSpec


def spec_with_voltages(n_v, extra_power=2):
    entries = [MeasurementEntry("v_bus", i, 0.5 / 3) for i in range(n_v)]
    entries += [MeasurementEntry("p_line", 0, 2 / 3)] * 0
    for k in range(extra_power):
        entries.append(MeasurementEntry("p_bus", k, 2 / 3))
    return MeasurementSpec(entries=tuple(entries))


def make_set(voltages, powers=(0.5, -0.25)):
    spec = spec_with_voltages(len(voltages), extra_power=len(powers))
    values = np.array(list(voltages) + list(powers))
    return MeasurementSet(values=values, switch_states=np.zeros(2),
                          spec_hash=spec.spec_hash), spec


def test_dropout_detected_and_replaced():
    # {1.00, 1.01, 0.99, 0.00}: SD drops from ~0.433 to ~0.0082 on removal
    ms, spec = make_set([1.00, 1.01, 0.99, 0.00])
    report = correct_voltages(ms, spec)
    assert report.flags == (KEPT, KEPT, KEPT, REPLACED)
    assert report.measurements.values[3] == pytest.approx(1.00)
    assert report.substitutes == (pytest.approx(1.00),)


def test_tight_cluster_untouched():
    ms, spec = make_set([1.00, 1.00, 1.00])
    report = correct_voltages(ms, spec)
    assert report.flags == (KEPT, KEPT, KEPT)
    assert np.array_equal(report.measurements.values, ms.values)


def test_150_percent_reading_replaced():
    # {0.98, 0.99, 1.00, 1.47}: outlier at the top, replaced by the mean 0.99
    ms, spec = make_set([0.98, 0.99, 1.00, 1.47])
    report = correct_voltages(ms, spec)
    assert report.flags == (KEPT, KEPT, KEPT, REPLACED)
    assert report.measurements.values[3] == pytest.approx(0.99)


def test_plausible_spread_never_flagged():
    # deep feeder sag: large but legitimate spread must not trigger
    ms, spec = make_set([1.00, 0.915, 0.912, 0.910])
    report = correct_voltages(ms, spec)
    assert report.n_replaced == 0


def test_non_voltage_entries_bit_identical():
    ms, spec = make_set([1.00, 1.01, 0.99, 0.00], powers=(12.5, -3.125, 0.7))
    report = correct_voltages(ms, spec)
    assert np.array_equal(report.measurements.values[4:], ms.values[4:])
    assert np.array_equal(report.measurements.switch_states, ms.switch_states)


def test_fewer_than_three_voltages_skipped():
    ms, spec = make_set([0.0, 1.0])
    report = correct_voltages(ms, spec)
    assert report.skipped
    assert np.array_equal(report.measurements.values, ms.values)


def test_idempotent_on_fault_case():
    ms, spec = make_set([1.00, 1.01, 0.99, 0.00])
    first = correct_voltages(ms, spec)
    second = correct_voltages(first.measurements, spec)
    assert second.n_replaced == 0
    assert np.array_equal(second.measurements.values, first.measurements.values)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.6), min_size=3, max_size=8))
def test_idempotence_property(voltages):
    ms, spec = make_set(voltages, powers=())
    first = correct_voltages(ms, spec)
    second = correct_voltages(first.measurements, spec)
    assert np.array_equal(second.measurements.values, first.measurements.values)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=0.85, max_value=1.1), min_size=3, max_size=8))
def test_plausible_values_always_kept(voltages):
    ms, spec = make_set(voltages, powers=())
    assert correct_voltages(ms, spec).n_replaced == 0


def test_hash_guard():
    ms, spec = make_set([1.0, 1.0, 1.0])
    other = spec_with_voltages(2)
    with pytest.raises(ValueError):
        correct_voltages(ms, other)


def test_two_outliers_both_replaced_when_separable():
    # one dropout at the bottom, one 150 % reading at the top of five values
    ms, spec = make_set([0.0, 0.99, 1.00, 1.01, 1.50])
    report = correct_voltages(ms, spec)
    assert report.flags[0] == REPLACED
    assert report.flags[4] == REPLACED
    kept = report.measurements.values[1:4]
    assert np.array_equal(kept, ms.values[1:4])


def test_correct_rows_screens_a_mixed_block_as_per_row_correction():
    """Clean rows, rows with a dropout, a 150 % reading or two faults, and
    rows with a NaN voltage: each row comes out bitwise as
    ``correct_voltages`` leaves it."""
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
    expected = np.array([correct_voltages(MeasurementSet(row.copy(), np.zeros(2),
                                                         spec.spec_hash), spec)
                         .measurements.values for row in block])
    got = block.copy()
    correct_rows(got, spec)
    assert got.tobytes() == expected.tobytes()
    changed = np.flatnonzero(np.any((got != block) & ~(np.isnan(got) & np.isnan(block)),
                                    axis=1))
    assert {3, 7, 11} <= set(changed.tolist())
