import json

import numpy as np
import pytest

from gridmon.ann import _backprop
from gridmon.grid import Bus, GridModel, Line, StatePass, Switch, Unit, load_bundled
from gridmon.measurements import measured_values, stacked_positions


@pytest.fixture(scope="session")
def cigre():
    return load_bundled("cigre_mv_mod")


@pytest.fixture
def two_bus():
    """Slack + one PQ bus joined by a purely reactive 0.1 pu line."""
    # 0.1 pu on the 1 MVA / 20 kV base = 40 ohm
    return GridModel(
        buses=(Bus(0, "slack", 20.0), Bus(1, "pq", 20.0)),
        lines=(Line(0, 0, 1, r_ohm=0.0, x_ohm=40.0, b_us=0.0, rating_amps=100.0),),
        switches=(),
        units=(Unit(0, 1, "load", p_nom_kw=100.0),),
        s_base_mva=1.0,
    )


@pytest.fixture
def three_bus():
    """Slack feeding two identical load buses, one PV unit on bus 2."""
    return GridModel(
        buses=(Bus(0, "slack", 20.0), Bus(1, "pq", 20.0), Bus(2, "pq", 20.0)),
        lines=(
            Line(0, 0, 1, r_ohm=2.0, x_ohm=4.0, b_us=10.0, rating_amps=145.0),
            Line(1, 1, 2, r_ohm=2.0, x_ohm=4.0, b_us=10.0, rating_amps=145.0),
        ),
        switches=(Switch(0, 1, closed=True),),
        units=(
            Unit(0, 1, "load", p_nom_kw=500.0),
            Unit(1, 2, "load", p_nom_kw=500.0),
            Unit(2, 2, "pv", p_nom_kw=100.0),
        ),
        s_base_mva=1.0,
    )


def write_grid_file(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.fixture
def minimal_grid_doc():
    return {
        "format": 1,
        "base": {"s_base_mva": 1.0},
        "buses": [
            {"id": 0, "kind": "slack", "base_kv": 20.0},
            {"id": 1, "kind": "pq", "base_kv": 20.0},
        ],
        "lines": [
            {"id": 0, "from_bus": 0, "to_bus": 1, "r_ohm": 1.0, "x_ohm": 2.0,
             "b_us": 0.0, "rating_amps": 100.0},
        ],
        "switches": [],
        "units": [
            {"id": 0, "bus": 1, "kind": "load", "p_nom_kw": 50.0},
        ],
    }


def flat_scenario(grid, load=1.0, dg=0.0):
    """Noise-free scenario at uniform scaling levels."""
    from gridmon.scenarios import Scenario

    p = np.array([u.p_nom_kw * (load if u.is_consumer else dg) for u in grid.units])
    q = p * np.tan(np.arccos(np.array([u.cos_phi for u in grid.units])))
    return Scenario(p_kw=p, q_kvar=q, tuple_values=(load, dg), repetition=0,
                    tuple_index=0, seed=None)


def n_known(cache):
    """The (config, scenario) truths a truth cache holds, divergences
    included: the rows of its tables."""
    return sum(len(table.diverged) for table in cache.values())


def entry_index(spec, kind, location):
    """The index of the one entry of ``spec`` reading ``kind`` at bus or line
    ``location``."""
    (index,) = [i for i, e in enumerate(spec.entries)
                if (e.kind, e.location) == (kind, location)]
    return index


def noise_free(solution, view, spec):
    """h(x) of one converged state: its noise-free readings for ``spec``,
    through ``measurements.measured_values`` on a batch of one."""
    pos = stacked_positions(spec.kind_code, spec.location, view.n_bus,
                            len(view.grid.lines))
    state = StatePass(view.branches, solution.v_mag_pu[None], solution.v_ang_rad[None])
    return measured_values(state, pos)[0]


def mse_and_grads(model, x, y):
    """One net's MSE on ``(x, y)`` and its gradients, from the training pass
    ``ann._backprop`` on a stack of one: what the gradient checks difference."""
    grad_w = [np.empty_like(w) for w in model.weights]
    grad_b = [np.empty_like(b) for b in model.biases]
    diff = _backprop([w[None] for w in model.weights], [b[None] for b in model.biases],
                     model.arch.hidden_activation, x, y[None],
                     [g[None] for g in grad_w], [g[None] for g in grad_b])
    return float(np.sum(diff * diff)) / y.size, grad_w, grad_b
