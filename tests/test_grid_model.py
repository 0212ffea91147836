import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridmon.grid import (GridFormatError, GridValidationError, IsolationError,
                          apply_switch_config, build_admittance, load_grid,
                          parse_grid)

from conftest import write_grid_file

CONFIG_0 = (False, False, False, True, True, True)


def test_bundled_cigre_counts(cigre):
    assert cigre.n_bus == 15
    dg = [u for u in cigre.units if not u.is_consumer]
    assert len(dg) == 9
    assert len([u for u in dg if u.kind == "wec"]) == 1
    assert len(cigre.switches) == 6
    assert cigre.slack_bus == 0


def test_bundled_dg_power_doubled(cigre):
    wec = next(u for u in cigre.units if u.kind == "wec")
    assert wec.p_nom_kw == pytest.approx(3000.0)
    pv_total = sum(u.p_nom_kw for u in cigre.units if u.kind == "pv")
    assert pv_total == pytest.approx(2 * (20 + 20 + 30 + 30 + 30 + 30 + 40 + 10))


def test_minimal_two_bus_file_valid(tmp_path, minimal_grid_doc):
    path = write_grid_file(tmp_path / "mini.grid.json", minimal_grid_doc)
    grid = load_grid(path)
    assert grid.n_bus == 2
    assert grid.units[0].cos_phi == pytest.approx(0.97)


def test_two_slack_buses_rejected(tmp_path, minimal_grid_doc):
    minimal_grid_doc["buses"][1]["kind"] = "slack"
    path = write_grid_file(tmp_path / "bad.grid.json", minimal_grid_doc)
    with pytest.raises(GridValidationError, match="slack"):
        load_grid(path)


def test_missing_field_reports_context(tmp_path, minimal_grid_doc):
    del minimal_grid_doc["lines"][0]["x_ohm"]
    path = write_grid_file(tmp_path / "bad.grid.json", minimal_grid_doc)
    with pytest.raises(GridFormatError, match=r"lines\[0\].*x_ohm"):
        load_grid(path)


def test_format_version_required():
    with pytest.raises(GridFormatError, match="format"):
        parse_grid('{"buses": [], "lines": [], "units": [], "base": {}}')


def test_not_json_reports_line():
    with pytest.raises(GridFormatError, match="line"):
        parse_grid("buses:\n - nope\n")


def test_config_0_radial_all_reachable(cigre):
    view = apply_switch_config(cigre, CONFIG_0)
    assert view.line_in_service.sum() == len(cigre.lines) - 3


def test_all_switches_closed_valid(cigre):
    view = apply_switch_config(cigre, (True,) * 6)
    assert view.line_in_service.all()


def test_all_switches_open_isolates(cigre):
    with pytest.raises(IsolationError):
        apply_switch_config(cigre, (False,) * 6)


def test_config_length_mismatch(cigre):
    with pytest.raises(GridValidationError, match="length"):
        apply_switch_config(cigre, (True, False))


def test_admittance_two_bus_hand_computed(two_bus):
    # r=0, x=0.1 pu: off-diagonal -(1/j0.1) = +10j, diagonals -10j
    view = apply_switch_config(two_bus, ())
    y = build_admittance(view)
    assert build_admittance(view) is y  # built once per view
    assert not y.flags.writeable  # callers cannot corrupt the view's copy
    assert y[0, 1] == pytest.approx(10j)
    assert y[1, 0] == pytest.approx(10j)
    assert y[0, 0] == pytest.approx(-10j)
    assert y[1, 1] == pytest.approx(-10j)


def test_admittance_open_switch_zeroes_offdiagonal(three_bus):
    view = apply_switch_config(three_bus, (True,))
    assert build_admittance(view)[1, 2] != 0
    # opening line 1-2 isolates bus 2's units, so drop them first
    from dataclasses import replace

    bare = replace(three_bus, units=(three_bus.units[0],))
    view_open = apply_switch_config(bare, (False,))
    y = build_admittance(view_open)
    assert y[1, 2] == 0
    assert y[2, 2] == 0


def _oracle_admittance(view):
    """Independent assembly: accumulate branch stamps into a dict."""
    grid = view.grid
    stamps = {}
    for ln in grid.lines:
        if not view.line_in_service[ln.id]:
            continue
        z_base = grid.buses[ln.from_bus].base_kv ** 2 / grid.s_base_mva
        y_series = 1.0 / complex(ln.r_ohm / z_base, ln.x_ohm / z_base)
        y_shunt = 0.5j * ln.b_us * 1e-6 * z_base
        i, j = ln.from_bus, ln.to_bus
        for key, val in (((i, i), y_series + y_shunt), ((j, j), y_series + y_shunt),
                         ((i, j), -y_series), ((j, i), -y_series)):
            stamps[key] = stamps.get(key, 0j) + val
    y = np.zeros((grid.n_bus, grid.n_bus), dtype=complex)
    for (i, j), val in stamps.items():
        y[i, j] = val
    return y


def test_admittance_matches_oracle_on_cigre(cigre):
    view = apply_switch_config(cigre, CONFIG_0)
    y = build_admittance(view)
    assert np.max(np.abs(y - _oracle_admittance(view))) < 1e-10


@settings(max_examples=25, deadline=None)
@given(config=st.tuples(*[st.booleans()] * 6))
def test_admittance_symmetric_for_any_config(cigre, config):
    try:
        view = apply_switch_config(cigre, config)
    except IsolationError:
        return
    y = build_admittance(view)
    assert np.array_equal(y, y.T)


@settings(max_examples=20, deadline=None)
@given(switch=st.integers(min_value=0, max_value=5))
def test_switch_toggle_changes_exactly_line_stamp(cigre, switch):
    base = list(CONFIG_0)
    toggled = list(CONFIG_0)
    toggled[switch] = not toggled[switch]
    try:
        y0 = build_admittance(apply_switch_config(cigre, base))
        y1 = build_admittance(apply_switch_config(cigre, toggled))
    except IsolationError:
        return
    line = cigre.lines[cigre.switches[switch].line_id]
    changed = np.argwhere(y0 != y1)
    expected = {(line.from_bus, line.from_bus), (line.to_bus, line.to_bus),
                (line.from_bus, line.to_bus), (line.to_bus, line.from_bus)}
    assert {tuple(rc) for rc in changed} == expected


def test_apply_switch_config_idempotent(cigre):
    v1 = apply_switch_config(cigre, CONFIG_0)
    v2 = apply_switch_config(cigre, v1.config)
    assert v1.config == v2.config
    assert np.array_equal(v1.line_in_service, v2.line_in_service)


def test_line_by_name_both_orders(cigre):
    assert cigre.line_by_name("4-11").id == cigre.line_by_name("11-4").id
    with pytest.raises(GridValidationError):
        cigre.line_by_name("0-14")


def test_monitored_lines_exclude_substation_jumpers(cigre):
    assert len(cigre.monitored_lines) == 15
    assert len(cigre.lines) == 17


def test_line_table_is_built_once_and_shared_by_views(cigre):
    table = cigre.line_table
    assert cigre.line_table is table
    for config in (CONFIG_0, (True,) * 6):
        net = apply_switch_config(cigre, config).branches
        for name in ("cf", "f_bus", "t_bus", "i_base_from", "i_base_to", "rating_amps"):
            assert getattr(net, name) is getattr(table, name), name
    assert not any(a.flags.writeable for a in vars(table).values())
    assert table.z_base.tolist() == [cigre.buses[ln.from_bus].base_kv ** 2 / cigre.s_base_mva
                                     for ln in cigre.lines]
    assert table.i_base_to.tolist() == [cigre.i_base_amps(ln.to_bus) for ln in cigre.lines]
    assert table.r_ohm.tolist() == [ln.r_ohm for ln in cigre.lines]
