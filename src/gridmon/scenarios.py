"""Synthetic operating-scenario generation.

Scenarios are built from axis tuples: each axis covers one unit kind with an
inclusive percentage grid, the Cartesian product of all axis grids gives the
tuple set, and expansion applies per-unit multiplicative Gaussian noise on
top of the tuple's scaling values. Expansion and the net bus injections are
array operations on the grid's unit table (``GridModel.unit_table``);
``generate_set`` seeds every scenario's noise stream in one
``seeding.rngs`` call, and ``bus_injections`` of ``unit_powers`` gives a
whole set's injections as one stacked ``InjectionSet``.
Scenarios are always regenerated from a seed; ``gridmon generate`` writes a
set to ``scenarios.csv`` as a record, and nothing reads it back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .grid import GridModel
from .powerflow import InjectionSet
from .seeding import STREAM_SCENARIO, rng, rngs


class ScenarioError(Exception):
    pass


@dataclass(frozen=True)
class ScenarioAxis:
    unit_kind: str
    min_pct: float
    max_pct: float
    step_pct: float
    noise_sd_pct: float

    def __post_init__(self):
        if self.min_pct > self.max_pct:
            raise ScenarioError(f"axis {self.unit_kind}: min > max")
        if self.step_pct <= 0:
            raise ScenarioError(f"axis {self.unit_kind}: step must be positive")
        if self.noise_sd_pct < 0:
            raise ScenarioError(f"axis {self.unit_kind}: negative noise SD")

    def grid_values(self) -> list[float]:
        """Inclusive scaling grid as fractions of nominal."""
        count = int(math.floor((self.max_pct - self.min_pct) / self.step_pct + 1e-9)) + 1
        values = [round(self.min_pct + k * self.step_pct, 9) / 100.0 for k in range(count)]
        if not values:
            raise ScenarioError(f"axis {self.unit_kind}: empty grid")
        return values


# load 10-100 %, wind 0-100 %, solar 0-90 %, all in 10 % steps
DEFAULT_AXES = (
    ScenarioAxis("load", 10.0, 100.0, 10.0, 10.0),
    ScenarioAxis("wec", 0.0, 100.0, 10.0, 25.0),
    ScenarioAxis("pv", 0.0, 90.0, 10.0, 25.0),
)

# five-axis variant with residential/commercial load split and batteries,
# 20 % steps to keep the tuple count manageable
FIVE_AXES = (
    ScenarioAxis("load_res", 10.0, 100.0, 20.0, 10.0),
    ScenarioAxis("load_com", 10.0, 100.0, 20.0, 10.0),
    ScenarioAxis("wec", 0.0, 100.0, 20.0, 25.0),
    ScenarioAxis("pv", 0.0, 100.0, 20.0, 25.0),
    ScenarioAxis("battery", -100.0, 100.0, 20.0, 25.0),
)


@dataclass(frozen=True)
class Scenario:
    """Per-unit power values (kW / kvar), aligned with grid.units order.

    Positive values follow each unit's own orientation (consumption for
    loads, injection for generators); net bus injections come out of
    :func:`injections`.
    """

    p_kw: np.ndarray
    q_kvar: np.ndarray
    tuple_values: tuple[float, ...]
    repetition: int
    tuple_index: int
    seed: int | None


def enumerate_tuples(axes) -> list[tuple[float, ...]]:
    """Cartesian product over all axis grids, axis order preserved."""
    if not axes:
        raise ScenarioError("at least one axis required")
    return [tuple(combo) for combo in product(*(ax.grid_values() for ax in axes))]


def expand(tuple_values, axes, grid: GridModel, seed: int | None,
           repetition: int = 0, tuple_index: int = 0, gen=None) -> Scenario:
    """Turn one scaling tuple into per-unit powers.

    p = p_nom * scale(kind) * max(0, 1 + N(0, sd)); the clamp keeps loads and
    generators from flipping sign through noise. q follows each unit's
    cos phi with the same sign as p. The noise comes from ``gen``, by
    default ``rng(seed, STREAM_SCENARIO, repetition, tuple_index)``.
    """
    units = grid.unit_table
    by_kind = {ax.unit_kind: (ax.noise_sd_pct, value) for ax, value in zip(axes, tuple_values)}
    missing = sorted(set(units.kinds) - set(by_kind))
    if missing:
        raise ScenarioError(f"no scenario axis for unit kinds {missing}")
    noise_sd = np.array([by_kind[k][0] for k in units.kinds], dtype=float)[units.kind]
    scale = np.array([by_kind[k][1] for k in units.kinds], dtype=float)[units.kind]
    if gen is None:
        gen = rng(0 if seed is None else seed, STREAM_SCENARIO, repetition, tuple_index)
    eps = gen.standard_normal(len(units.bus))
    factor = np.maximum(0.0, 1.0 + noise_sd / 100.0 * eps)
    p = units.p_nom_kw * scale * factor
    q = p * units.tan_phi
    return Scenario(p_kw=p, q_kvar=q, tuple_values=tuple(tuple_values),
                    repetition=repetition, tuple_index=tuple_index, seed=seed)


def generate_set(axes, grid: GridModel, repetitions: int, seed: int) -> list[Scenario]:
    """All tuples expanded ``repetitions`` times; repetitions differ only in noise."""
    if repetitions < 1:
        raise ScenarioError("repetitions must be >= 1")
    tuples = enumerate_tuples(axes)
    rep, idx = np.divmod(np.arange(repetitions * len(tuples)), len(tuples))
    gens = rngs(0 if seed is None else seed,
                np.column_stack([np.full(len(rep), STREAM_SCENARIO), rep, idx]))
    return [expand(tuples[i], axes, grid, seed, repetition=r, tuple_index=i, gen=gen)
            for r, i, gen in zip(rep.tolist(), idx.tolist(), gens)]


def injections(grid: GridModel, scenario: Scenario) -> InjectionSet:
    """Net per-bus injections in per-unit, generation positive."""
    return bus_injections(grid, scenario.p_kw, scenario.q_kvar)


def bus_injections(grid: GridModel, p_kw: np.ndarray, q_kvar: np.ndarray) -> InjectionSet:
    """Net per-bus injections of unit powers ``([B,] n_unit)`` (kW / kvar),
    as an InjectionSet ``([B,] n_bus)``; each bus sums its units in unit
    order, row by row, so row b is bitwise what row b alone gives."""
    units = grid.unit_table
    n = grid.n_bus
    s_base_kw = grid.s_base_mva * 1e3
    lead = np.shape(p_kw)[:-1]
    n_rows = int(np.prod(lead))
    bins = (np.arange(n_rows)[:, None] * n + units.bus).ravel()

    def per_bus(values):
        weights = (units.sign * values / s_base_kw).ravel()
        return np.bincount(bins, weights=weights, minlength=n_rows * n).reshape(lead + (n,))

    return InjectionSet(p_pu=per_bus(p_kw), q_pu=per_bus(q_kvar))


def unit_powers(scenario_list) -> tuple[np.ndarray, np.ndarray]:
    """The scenarios' unit powers as ``(N, n_unit)`` kW and kvar arrays."""
    n_units = len(scenario_list[0].p_kw) if scenario_list else 0
    return (np.array([sc.p_kw for sc in scenario_list], dtype=float).reshape(-1, n_units),
            np.array([sc.q_kvar for sc in scenario_list], dtype=float).reshape(-1, n_units))
