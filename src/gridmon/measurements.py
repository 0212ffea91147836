"""Measurement simulation: accuracy classes, noisy measurement vectors, faults.

A MeasurementSpec fixes the layout of the measurement vector (kinds,
locations, standard deviations). The layout is versioned through a content
hash; estimators refuse vectors whose hash does not match their own. The
spec keeps its hash, kind codes and locations once computed, and
``stacked_positions`` maps them onto the stacked bus and line quantities
of :func:`measured_values`, the one h(x) of the simulator and WLS. It
reads the voltages and currents of one ``grid.StatePass``, the pass WLS
also takes its Jacobian from.

Value conventions: v_bus in pu, p/q in pu (MW on a 1 MVA base), i_line as
per-unit current at the from end. Noise is relative to the reading.

Readings are simulated as ``(B, m)`` arrays, one row per (switch config,
scenario) pair: :func:`simulate_batch` reads B states of one switch view
and draws each row's noise from its own stream, all B streams seeded in one
``seeding.rngs`` call; :func:`simulate_truths` reads the
``powerflow.Truths`` of ``powerflow.solve_truths``, one batch per config,
into one ``(N, m)`` array with the truths' rows. A case's faults are
resolved against the spec once (:func:`resolve_faults`) and applied to such
a block (:func:`apply_faults`).
``simulate`` is the one-vector call, and ``MeasurementSet`` wraps one
vector for it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import GridModel, GridView, StatePass, bus_powers, from_end_flows
from .powerflow import ELISION_ELEMENTS, PfSolution
from .seeding import STREAM_MEASUREMENT, rngs

BUS_KINDS = ("v_bus", "p_bus", "q_bus")
LINE_KINDS = ("p_line", "q_line", "i_line")
ALL_KINDS = BUS_KINDS + LINE_KINDS
KIND_CODE = {kind: code for code, kind in enumerate(ALL_KINDS)}

# IEC-style accuracy classes: the class is the 3-sigma maximum relative
# error in percent, so SD = class / 3. Power readings combine voltage and
# current channel errors.
VOLTAGE_ACC_CLASS = 0.5
CURRENT_ACC_CLASS = 1.5
POWER_SD_PCT = VOLTAGE_ACC_CLASS / 3.0 + CURRENT_ACC_CLASS / 3.0


class MeasurementError(Exception):
    pass


def accuracy_to_sd(kind: str) -> float:
    """Relative standard deviation (percent) for a measurement kind.

    The instrument classes are fixed: ACC 0.5 for voltage, ACC 1 (max error
    1.5 %) for current, and 2/3 % for power measurements.
    """
    if kind == "v_bus":
        return VOLTAGE_ACC_CLASS / 3.0
    if kind == "i_line":
        return CURRENT_ACC_CLASS / 3.0
    if kind in ("p_bus", "q_bus", "p_line", "q_line"):
        return POWER_SD_PCT
    raise MeasurementError(f"unknown measurement kind {kind!r}")


@dataclass(frozen=True)
class MeasurementEntry:
    kind: str
    location: int  # bus id for *_bus, line id for *_line
    sd_pct: float

    def key(self) -> str:
        return f"{self.kind}@{self.location}"


@dataclass(frozen=True)
class MeasurementSpec:
    entries: tuple[MeasurementEntry, ...]

    @cached_property
    def spec_hash(self) -> str:
        payload = "|".join(e.key() for e in self.entries)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    @cached_property
    def kind_code(self) -> np.ndarray:
        """Read-only code of each entry's kind, its index in ``ALL_KINDS``."""
        try:
            codes = np.array([KIND_CODE[e.kind] for e in self.entries], dtype=int)
        except KeyError as exc:
            raise MeasurementError(f"unknown measurement kind {exc.args[0]!r}") from None
        codes.setflags(write=False)
        return codes

    @cached_property
    def location(self) -> np.ndarray:
        """Read-only bus or line id of each entry."""
        locations = np.array([e.location for e in self.entries], dtype=int)
        locations.setflags(write=False)
        return locations

    def indices(self, kind: str) -> list[int]:
        return np.flatnonzero(self.kind_code == KIND_CODE[kind]).tolist()

    def sd_vector(self) -> np.ndarray:
        return np.array([e.sd_pct for e in self.entries])

    def validate_against(self, grid: GridModel) -> None:
        n_line = len(grid.lines)
        for e in self.entries:
            if e.kind not in ALL_KINDS:
                raise MeasurementError(f"unknown measurement kind {e.kind!r}")
            if e.kind in BUS_KINDS and not 0 <= e.location < grid.n_bus:
                raise MeasurementError(f"{e.key()}: bus does not exist")
            if e.kind in LINE_KINDS and not 0 <= e.location < n_line:
                raise MeasurementError(f"{e.key()}: line does not exist")


def make_spec(grid: GridModel, v_buses=(), s_buses=(), s_lines=(), i_lines=()) -> MeasurementSpec:
    """Assemble a spec in canonical order: V entries, bus P/Q pairs, line P/Q
    pairs, then current magnitudes. Lines may be given as ids or "a-b" names."""

    def line_id(ref) -> int:
        return ref if isinstance(ref, int) else grid.line_by_name(ref).id

    entries: list[MeasurementEntry] = []
    for bus in v_buses:
        entries.append(MeasurementEntry("v_bus", int(bus), accuracy_to_sd("v_bus")))
    for bus in s_buses:
        entries.append(MeasurementEntry("p_bus", int(bus), accuracy_to_sd("p_bus")))
        entries.append(MeasurementEntry("q_bus", int(bus), accuracy_to_sd("q_bus")))
    for ref in s_lines:
        lid = line_id(ref)
        entries.append(MeasurementEntry("p_line", lid, accuracy_to_sd("p_line")))
        entries.append(MeasurementEntry("q_line", lid, accuracy_to_sd("q_line")))
    for ref in i_lines:
        entries.append(MeasurementEntry("i_line", line_id(ref), accuracy_to_sd("i_line")))
    spec = MeasurementSpec(entries=tuple(entries))
    spec.validate_against(grid)
    return spec


@dataclass(frozen=True)
class MeasurementSet:
    values: np.ndarray
    switch_states: np.ndarray  # 0/1 per switch, never noisy
    spec_hash: str


def stacked_starts(n_bus: int, n_line: int) -> np.ndarray:
    """Where each kind's block (``ALL_KINDS`` order) starts in the stacked
    vector ``[V; P_bus; Q_bus; P_f; Q_f; |I_f|]``, which has one row per bus
    or per line in each block."""
    sizes = [n_bus if kind in BUS_KINDS else n_line for kind in ALL_KINDS]
    return np.cumsum([0] + sizes[:-1])


def stacked_positions(kind_code: np.ndarray, location: np.ndarray,
                      n_bus: int, n_line: int) -> np.ndarray:
    """Positions of measurements (kind codes into ``ALL_KINDS`` and their bus
    or line ids) in the stacked vector (see :func:`stacked_starts`)."""
    return stacked_starts(n_bus, n_line)[kind_code] + location


def measured_values(state: StatePass, pos: np.ndarray) -> np.ndarray:
    """h(x): noise-free readings at stacked positions ``pos`` of the
    ``([B,] n_bus)`` states of a ``grid.StatePass``, row b on row b of a
    stacked branch model, with ``S_bus = V conj(Ybus V)``, ``S_f = V_f
    conj(Yf V)`` and ``|I_f| = |Yf V|``."""
    s_bus = bus_powers(state)
    _, _, s_f = from_end_flows(state)
    stacked = [state.v, s_bus.real, s_bus.imag, s_f.real, s_f.imag, np.abs(state.i_f)]
    return np.concatenate(stacked, axis=-1)[..., pos]


def _positions(view: GridView, spec: MeasurementSpec) -> np.ndarray:
    return stacked_positions(spec.kind_code, spec.location, view.n_bus,
                             len(view.grid.lines))


def simulate_batch(view: GridView, v: np.ndarray, th: np.ndarray, spec: MeasurementSpec,
                   seed: int, noise_keys) -> np.ndarray:
    """Noisy readings ``(B, m)`` of B converged states ``(B, n_bus)`` of one
    switch view: value = true * (1 + N(0, sd)).

    Under a per-sample impedance scale row b of the scale is state b's
    network. Row b's noise comes from its own generator, ``rng(seed,
    STREAM_MEASUREMENT, *noise_keys[b])`` for keys ``(B, k)``, and the B
    generators are seeded in one ``seeding.rngs`` call. Each row is bitwise
    the same in any batch: every step is elementwise or one matrix-vector
    product per state (see :mod:`powerflow`).
    The batch runs in blocks whose complex arrays stay under
    ``ELISION_ELEMENTS`` elements, the ``(B, n_line, n_bus)`` branch
    matrices of a per-sample view included; the blocks bound memory.
    """
    pos = _positions(view, spec)
    sd = spec.sd_vector() / 100.0
    n = view.n_bus
    keys = np.asarray(noise_keys, dtype=np.int64)
    keys = keys.reshape(len(v), -1 if keys.size else 0)
    streams = rngs(seed, np.hstack([np.full((len(v), 1), STREAM_MEASUREMENT), keys]))
    noise = np.array([gen.standard_normal(len(pos)) for gen in streams]).reshape(
        len(v), len(pos))
    block = max(1, (ELISION_ELEMENTS - 1) // (max(len(view.grid.lines), n) * n))
    values = np.empty((len(v), len(pos)))
    for start in range(0, len(v), block):
        rows = slice(start, start + block)
        truth = measured_values(StatePass(view.take(rows).branches, v[rows], th[rows]), pos)
        values[rows] = truth * (1.0 + sd * noise[rows])
    return values


def simulate(solution: PfSolution, view: GridView, spec: MeasurementSpec,
             seed: int, *, noise_key: tuple[int, ...] = ()) -> MeasurementSet:
    """Sample one noisy measurement vector; the one-state call of
    :func:`simulate_batch`."""
    values = simulate_batch(view, solution.v_mag_pu[None], solution.v_ang_rad[None],
                            spec, seed, [noise_key])[0]
    return MeasurementSet(values=values,
                          switch_states=np.array(view.config, dtype=float),
                          spec_hash=spec.spec_hash)


def simulate_truths(truths, views, spec: MeasurementSpec, seed: int) -> np.ndarray:
    """Noisy readings ``(N, m)`` of the ``powerflow.Truths`` pairs over
    ``views``, row for row, with pair (c, s)'s noise keyed ``(c, s)``; a
    diverged pair's row is NaN.

    Each config's converged pairs are simulated in one
    :func:`simulate_batch`; under per-sample factors it runs on one view
    stacking those pairs' impedance scales.
    """
    n_scenarios = len(truths.config) // len(views)
    values = np.full((len(truths.config), len(spec.entries)), np.nan)
    for cfg_idx, view in enumerate(views):
        first = cfg_idx * n_scenarios
        scs = np.flatnonzero(~truths.diverged[first:first + n_scenarios])
        if not scs.size:
            continue
        rows = first + scs
        if truths.scale is not None:
            view = view.with_scaled_impedance(truths.scale[rows])
        keys = np.column_stack([np.full(scs.size, cfg_idx), scs])
        values[rows] = simulate_batch(view, truths.v[rows], truths.th[rows], spec, seed, keys)
    return values


@dataclass(frozen=True)
class FaultInjection:
    """One bad-data or gross-error effect.

    kinds:
      zero_value          - targeted entries read 0
      scale_value         - targeted entries read factor * true reading
      constant_substitute - targeted entries replaced by a constant
      wrong_assumed_sd    - estimator-assumed SD changes, reading untouched
      power_deviation     - actual injected power at target buses is factor *
                            the measured value; the stale reading is restored
                            by dividing affected bus entries by the factor
    """

    kind: str
    target_kind: str | None = None  # measurement kind for value faults
    buses: tuple[int, ...] = ()
    lines: tuple[int, ...] = ()
    factor: float = 1.0
    value: float = 0.0
    assumed_sd_pct: float | None = None


VALUE_FAULTS = ("zero_value", "scale_value", "constant_substitute")


def resolve_faults(faults, spec: MeasurementSpec):
    """The faults that change readings, each with the entry indices it acts
    on, in the order they apply: value faults, then power deviations.

    Raises MeasurementError for an unknown fault kind or a value fault that
    targets nothing in ``spec``.
    """
    resolved = []
    for fault in faults:
        if fault.kind in VALUE_FAULTS:
            targets = _targets(fault, spec)
            if not len(targets):
                raise MeasurementError(
                    f"fault {fault.kind} targets nothing in this spec "
                    f"(buses={fault.buses}, lines={fault.lines})")
            resolved.append((fault, targets))
        elif fault.kind not in ("power_deviation", "wrong_assumed_sd"):
            raise MeasurementError(f"unknown fault kind {fault.kind!r}")
    resolved += [(fault, _targets(fault, spec, ("p_bus", "q_bus")))
                 for fault in faults if fault.kind == "power_deviation"]
    return tuple(resolved)


def apply_faults(values: np.ndarray, resolved) -> None:
    """Apply :func:`resolve_faults` output in place to readings ``([B,] m)``.

    wrong_assumed_sd faults leave readings untouched (see
    :func:`assumed_sd_overrides`); power_deviation faults restore the stale
    pre-deviation reading for bus power entries at the target buses.
    """
    for fault, targets in resolved:
        if fault.kind == "zero_value":
            values[..., targets] = 0.0
        elif fault.kind == "scale_value":
            values[..., targets] *= fault.factor
        elif fault.kind == "constant_substitute":
            values[..., targets] = fault.value
        else:
            values[..., targets] /= fault.factor


def _targets(fault: FaultInjection, spec: MeasurementSpec, kinds=None) -> np.ndarray:
    """Indices, in entry order, of the entries of ``kinds`` (default: the
    fault's target kind, else every kind) at the fault's buses for bus kinds
    and at its lines for line kinds."""
    kinds = kinds or ((fault.target_kind,) if fault.target_kind else ALL_KINDS)
    codes = spec.kind_code
    at = np.where(codes < len(BUS_KINDS), np.isin(spec.location, fault.buses),
                  np.isin(spec.location, fault.lines))
    of_kind = np.isin(codes, [KIND_CODE[k] for k in kinds if k in KIND_CODE])
    return np.flatnonzero(of_kind & at)


def assumed_sd_overrides(faults, spec: MeasurementSpec) -> dict[int, float]:
    """Entry-index -> SD (percent) the estimator should assume, for
    wrong_assumed_sd faults."""
    return {i: float(fault.assumed_sd_pct)
            for fault in faults if fault.kind == "wrong_assumed_sd"
            for i in _targets(fault, spec).tolist()}


def scale_powers_at(grid: GridModel, buses, factor: float, p_kw: np.ndarray,
                    q_kvar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit powers ``([B,] n_unit)`` with every unit at ``buses`` scaled by
    ``factor``."""
    at_bus = np.zeros(grid.n_bus, dtype=bool)
    at_bus[list(buses)] = True
    mask = at_bus[grid.unit_table.bus]
    return (np.where(mask, p_kw * factor, p_kw), np.where(mask, q_kvar * factor, q_kvar))
