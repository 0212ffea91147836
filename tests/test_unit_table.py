"""Parity of the unit-table array forms with per-unit loop references.

The references below walk ``grid.units`` one unit at a time and add in unit
order, as the array forms must; results are compared bit for bit.
``cigre_mv_base`` has non-uniform cos phi and two load units on buses 1, 3,
10, 12 and 14.
"""

import math

import numpy as np
import pytest

from gridmon.evaluation import load_catalog
from gridmon.grid import apply_switch_config, load_bundled
from gridmon.measurements import KIND_CODE, simulate
from gridmon.powerflow import solve_pf
from gridmon.scenarios import DEFAULT_AXES, expand, generate_set, injections
from gridmon.seeding import STREAM_SCENARIO, rng
from gridmon.wls import build_pseudo


def reference_expand(tuple_values, axes, grid, seed, repetition, tuple_index):
    axis = {ax.unit_kind: (ax, value) for ax, value in zip(axes, tuple_values)}
    eps = rng(seed, STREAM_SCENARIO, repetition, tuple_index).standard_normal(len(grid.units))
    p, q = [], []
    for unit, e in zip(grid.units, eps):
        ax, scale = axis[unit.kind]
        p.append(unit.p_nom_kw * scale * max(0.0, 1.0 + ax.noise_sd_pct / 100.0 * e))
        q.append(p[-1] * math.tan(math.acos(unit.cos_phi)))
    return np.array(p), np.array(q)


def reference_injections(grid, scenario):
    p, q = np.zeros(grid.n_bus), np.zeros(grid.n_bus)
    for idx, unit in enumerate(grid.units):
        sign = -1.0 if unit.is_consumer else 1.0
        p[unit.bus] += sign * scenario.p_kw[idx] / 1e3
        q[unit.bus] += sign * scenario.q_kvar[idx] / 1e3
    return p, q


def reference_pseudo(grid, ms, spec):
    """Pseudo-measurement rows (kind, bus, value, sd, fallback) as the per-unit
    loops build them (1 MVA base)."""
    slack = grid.slack_bus
    reading = {}
    for i in spec.indices("p_bus"):
        reading.setdefault(spec.entries[i].location, float(ms.values[i]))
    if slack in reading:
        p_slack = reading[slack]
    elif spec.indices("p_line"):
        p_slack = float(sum(ms.values[i] for i in spec.indices("p_line")))
    else:
        p_slack = None
    dg = [u for u in grid.units if not u.is_consumer]
    rel = {}
    for kind in {u.kind for u in dg}:
        seen = [u for u in dg if u.kind == kind and u.bus in reading and u.bus != slack]
        if seen:
            ratio = sum(reading[u.bus] for u in seen) / sum(u.p_nom_kw / 1e3 for u in seen)
            rel[kind] = min(max(ratio, 0.0), 1.0)

    def parts(bus):
        return [(u, rel.get(u.kind, 0.5) * u.p_nom_kw / 1e3) for u in dg if u.bus == bus]

    unmeasured = [b for b in range(grid.n_bus) if b not in reading and b != slack]
    loads = {b: [u for u in grid.units if u.bus == b and u.is_consumer] for b in unmeasured}
    load_nom = {b: sum(u.p_nom_kw for u in loads[b]) / 1e3 for b in unmeasured}
    total = sum(load_nom.values())
    balance = p_slack is not None and total > 0
    if balance:
        remainder = (-p_slack - sum(reading[b] for b in sorted(reading) if b != slack)
                     - sum(sum(part for _, part in parts(b)) for b in unmeasured))
    rows = []
    for b in unmeasured:
        p_load = 0.0
        if load_nom[b] > 0:
            p_load = remainder * load_nom[b] / total if balance else -0.5 * load_nom[b]
        p = p_load + sum(part for _, part in parts(b))
        q = sum(part * math.tan(math.acos(u.cos_phi)) for u, part in parts(b))
        if loads[b]:
            q += p_load * math.tan(math.acos(loads[b][0].cos_phi))
        fallback = (p_slack is None and load_nom[b] > 0) or any(
            u.kind not in rel for u, _ in parts(b))
        rows += [(KIND_CODE[kind], b, value, max(0.3 * abs(value), 1e-3), fallback)
                 for kind, value in (("p_bus", p), ("q_bus", q))]
    return rows


@pytest.fixture(scope="module", params=["cigre_mv_mod", "cigre_mv_base"])
def grid_and_scenarios(request):
    grid = load_bundled(request.param)
    return grid, generate_set(DEFAULT_AXES, grid, 1, 7)


def test_expand_matches_per_unit_loop(grid_and_scenarios):
    grid, scenarios = grid_and_scenarios
    for sc in scenarios[::11]:
        p, q = reference_expand(sc.tuple_values, DEFAULT_AXES, grid, 7, 0, sc.tuple_index)
        assert sc.p_kw.tobytes() == p.tobytes()
        assert sc.q_kvar.tobytes() == q.tobytes()
    again = expand(scenarios[5].tuple_values, DEFAULT_AXES, grid, 7, 0, 5)
    assert again.p_kw.tobytes() == scenarios[5].p_kw.tobytes()


def test_injections_match_per_unit_loop(grid_and_scenarios):
    grid, scenarios = grid_and_scenarios
    for sc in scenarios:
        inj = injections(grid, sc)
        p, q = reference_injections(grid, sc)
        assert inj.p_pu.tobytes() == p.tobytes()
        assert inj.q_pu.tobytes() == q.tobytes()


@pytest.mark.parametrize("case_id", ["M4", "M9", "R4"])
def test_build_pseudo_matches_per_unit_loop(grid_and_scenarios, case_id):
    grid, scenarios = grid_and_scenarios
    catalog = load_catalog(grid)
    spec = catalog.case(case_id).spec(grid)
    for cfg_idx, config in enumerate(catalog.switch_configs):
        view = apply_switch_config(grid, config)
        for sc_idx in range(0, len(scenarios), 137):
            sol = solve_pf(view, injections(grid, scenarios[sc_idx]))
            ms = simulate(sol, view, spec, 3, noise_key=(cfg_idx, sc_idx))
            pseudo = build_pseudo(grid, ms, spec)
            kind, bus, value, sd, fallback = zip(*reference_pseudo(grid, ms, spec))
            assert pseudo.kind.tolist() == list(kind)
            assert pseudo.bus.tolist() == list(bus)
            assert pseudo.value.tobytes() == np.array(value).tobytes()
            assert pseudo.sd.tobytes() == np.array(sd).tobytes()
            assert pseudo.fallback.tolist() == list(fallback)
