"""Electrical network data model, switch handling and the branch admittance model.

All electrical computations downstream (power flow, measurement simulation,
WLS estimation) work on a :class:`GridView`, i.e. a grid plus one concrete
switch configuration and an optional line impedance scale. Each view
builds its branch admittance model once (:class:`BranchModel`: the from/to
branch matrices ``Yf``/``Yt`` and the bus matrix ``Ybus``, as in MATPOWER's
``makeYbus``, stacked per sample under a per-sample scale) and keeps it.
The voltages and currents of states on it come from one pass,
:class:`StatePass` (``exp(j th)``, ``V``, ``Ybus V`` and ``Yf V``); bus
injections, line flows and their voltage derivatives all read that pass.
Per-unit convention: ``s_base_mva`` from the grid file (bundled grids use
1 MVA), voltage base is each bus's ``base_kv``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np

LOAD_KIND_PREFIX = "load"


class GridError(Exception):
    """Base class for grid file and model errors."""


class GridFormatError(GridError):
    """Raised when a grid file cannot be parsed; carries field context."""


class GridValidationError(GridError):
    """Raised when a parsed grid violates a model invariant."""


class IsolationError(GridError):
    """Raised when a switch configuration cuts supplied buses off the slack."""


@dataclass(frozen=True)
class Bus:
    id: int
    kind: str  # "slack" or "pq"
    base_kv: float


@dataclass(frozen=True)
class Line:
    id: int
    from_bus: int
    to_bus: int
    r_ohm: float
    x_ohm: float
    b_us: float  # total shunt susceptance, microsiemens
    rating_amps: float
    # Equivalent branches standing in for non-modeled devices (e.g. the
    # substation transformer) set monitored=False: they carry power flow but
    # are excluded from loading estimation targets and loading criteria.
    monitored: bool = True

    @property
    def name(self) -> str:
        return f"{self.from_bus}-{self.to_bus}"


@dataclass(frozen=True)
class Switch:
    id: int
    line_id: int
    closed: bool


@dataclass(frozen=True)
class Unit:
    id: int
    bus: int
    kind: str  # "load", "pv", "wec", "battery" or a custom tag like "load_res"
    p_nom_kw: float
    cos_phi: float = 0.97

    @property
    def is_consumer(self) -> bool:
        """Loads consume (negative injection); everything else injects."""
        return self.kind.startswith(LOAD_KIND_PREFIX)


@dataclass(frozen=True)
class GridModel:
    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    switches: tuple[Switch, ...]
    units: tuple[Unit, ...]
    s_base_mva: float = 1.0

    @property
    def n_bus(self) -> int:
        return len(self.buses)

    @property
    def slack_bus(self) -> int:
        return next(b.id for b in self.buses if b.kind == "slack")

    @property
    def monitored_lines(self) -> tuple[Line, ...]:
        return tuple(ln for ln in self.lines if ln.monitored)

    def line_by_name(self, name: str) -> Line:
        """Look up a line by ``from-to`` bus pair, accepting both orders."""
        a, b = (int(t) for t in name.split("-"))
        for ln in self.lines:
            if {ln.from_bus, ln.to_bus} == {a, b}:
                return ln
        raise GridValidationError(f"no line between buses {a} and {b}")

    def i_base_amps(self, bus: int) -> float:
        """Current base: s_base / (sqrt(3) * v_base), in amperes."""
        return self.s_base_mva * 1e6 / (math.sqrt(3.0) * self.buses[bus].base_kv * 1e3)

    @cached_property
    def unit_table(self) -> UnitTable:
        """The per-unit facts as arrays, built on first use and kept."""
        return _build_unit_table(self.units)

    @cached_property
    def line_table(self) -> LineTable:
        """The static per-line facts as arrays, built on first use and kept."""
        return _build_line_table(self)


@dataclass(frozen=True)
class UnitTable:
    """Read-only arrays aligned with ``grid.units``, one entry per unit."""

    bus: np.ndarray  # bus index
    sign: np.ndarray  # -1.0 for consumers, +1.0 for injecting units
    kind: np.ndarray  # index into ``kinds``
    kinds: tuple[str, ...]  # the distinct unit kinds, sorted
    p_nom_kw: np.ndarray
    tan_phi: np.ndarray  # q / p at the unit's power factor


def _build_unit_table(units: tuple[Unit, ...]) -> UnitTable:
    kinds, kind = np.unique([u.kind for u in units], return_inverse=True)
    table = UnitTable(
        bus=np.array([u.bus for u in units], dtype=int),
        sign=np.array([-1.0 if u.is_consumer else 1.0 for u in units]),
        kind=kind,
        kinds=tuple(str(k) for k in kinds),
        p_nom_kw=np.array([u.p_nom_kw for u in units], dtype=float),
        tan_phi=np.array([math.tan(math.acos(u.cos_phi)) for u in units]),
    )
    for a in (table.bus, table.sign, table.kind, table.p_nom_kw, table.tan_phi):
        a.setflags(write=False)
    return table


@dataclass(frozen=True)
class LineTable:
    """Read-only arrays aligned with ``grid.lines``, one entry per line; the
    impedance base is the from bus's."""

    f_bus: np.ndarray  # from-bus index
    t_bus: np.ndarray  # to-bus index
    r_ohm: np.ndarray
    x_ohm: np.ndarray
    b_us: np.ndarray
    rating_amps: np.ndarray
    z_base: np.ndarray  # ohm
    i_base_from: np.ndarray  # current base at the from end, A
    i_base_to: np.ndarray  # current base at the to end, A
    cf: np.ndarray  # (n_line, n_bus), 1 at the from bus
    ct: np.ndarray  # (n_line, n_bus), 1 at the to bus


def _build_line_table(grid: GridModel) -> LineTable:
    r_ohm, x_ohm, b_us, rating, f_bus, t_bus = np.array(
        [(ln.r_ohm, ln.x_ohm, ln.b_us, ln.rating_amps, ln.from_bus, ln.to_bus)
         for ln in grid.lines]).T
    f_bus, t_bus = f_bus.astype(int), t_bus.astype(int)
    z_base = np.array([grid.buses[b].base_kv ** 2 / grid.s_base_mva for b in f_bus])
    i_base = np.array([grid.i_base_amps(b.id) for b in grid.buses])
    table = LineTable(f_bus=f_bus, t_bus=t_bus, r_ohm=r_ohm, x_ohm=x_ohm, b_us=b_us,
                      rating_amps=rating, z_base=z_base, i_base_from=i_base[f_bus],
                      i_base_to=i_base[t_bus], cf=np.eye(grid.n_bus)[f_bus],
                      ct=np.eye(grid.n_bus)[t_bus])
    for a in vars(table).values():
        a.setflags(write=False)
    return table


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise GridValidationError(message)


def validate_grid(grid: GridModel) -> None:
    """Check all structural invariants, raising GridValidationError on the first hit."""
    slack_ids = [b.id for b in grid.buses if b.kind == "slack"]
    _require(len(slack_ids) == 1, f"exactly one slack bus required, found {len(slack_ids)}")
    _require(
        [b.id for b in grid.buses] == list(range(len(grid.buses))),
        "bus ids must be contiguous from 0",
    )
    for b in grid.buses:
        _require(b.kind in ("slack", "pq"), f"bus {b.id}: unknown kind {b.kind!r}")
        _require(b.base_kv > 0, f"bus {b.id}: base_kv must be positive")
    bus_ids = {b.id for b in grid.buses}
    line_ids = [ln.id for ln in grid.lines]
    _require(line_ids == list(range(len(grid.lines))), "line ids must be contiguous from 0")
    for ln in grid.lines:
        _require(ln.from_bus in bus_ids and ln.to_bus in bus_ids,
                 f"line {ln.id}: endpoint bus missing")
        _require(ln.from_bus != ln.to_bus, f"line {ln.id}: from_bus equals to_bus")
        _require(ln.r_ohm >= 0, f"line {ln.id}: negative resistance")
        _require(ln.x_ohm != 0, f"line {ln.id}: zero reactance")
        _require(ln.rating_amps > 0, f"line {ln.id}: rating_amps must be positive")
    switched_lines = [sw.line_id for sw in grid.switches]
    _require(len(set(switched_lines)) == len(switched_lines),
             "a line may carry at most one switch")
    for sw in grid.switches:
        _require(sw.line_id in set(line_ids), f"switch {sw.id}: unknown line {sw.line_id}")
    for u in grid.units:
        _require(u.bus in bus_ids, f"unit {u.id}: unknown bus {u.bus}")
        _require(0.0 < u.cos_phi <= 1.0, f"unit {u.id}: cos_phi must be in (0, 1]")
        if u.kind != "battery":
            _require(u.p_nom_kw > 0, f"unit {u.id}: p_nom_kw must be positive")
        else:
            _require(u.p_nom_kw != 0, f"unit {u.id}: battery p_nom_kw must be nonzero")
    _require(grid.s_base_mva > 0, "s_base_mva must be positive")
    # connectivity under the most permissive configuration
    reachable = _reachable_buses(grid, np.ones(len(grid.lines), dtype=bool))
    _require(len(reachable) == grid.n_bus,
             "grid is not connected even with every switch closed")


def _reachable_buses(grid: GridModel, line_closed: np.ndarray) -> set[int]:
    adj: dict[int, list[int]] = {b.id: [] for b in grid.buses}
    for ln in grid.lines:
        if line_closed[ln.id]:
            adj[ln.from_bus].append(ln.to_bus)
            adj[ln.to_bus].append(ln.from_bus)
    seen = {grid.slack_bus}
    stack = [grid.slack_bus]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def _coerce(section: str, index: int, record: dict, name: str, caster):
    try:
        value = record[name]
    except KeyError:
        raise GridFormatError(f"{section}[{index}]: missing field {name!r}") from None
    try:
        return caster(value)
    except (TypeError, ValueError):
        raise GridFormatError(
            f"{section}[{index}]: field {name!r} has invalid value {value!r}"
        ) from None


def parse_grid(text: str, source: str = "<string>") -> GridModel:
    """Parse the grid file format (JSON with sections buses/lines/switches/units/base)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GridFormatError(f"{source}: not valid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise GridFormatError(f"{source}: top level must be an object")
    if doc.get("format") != 1:
        raise GridFormatError(f"{source}: missing or unsupported 'format' (expected 1)")
    for section in ("buses", "lines", "units", "base"):
        if section not in doc:
            raise GridFormatError(f"{source}: missing section {section!r}")
    buses = tuple(
        Bus(
            id=_coerce("buses", i, rec, "id", int),
            kind=_coerce("buses", i, rec, "kind", str),
            base_kv=_coerce("buses", i, rec, "base_kv", float),
        )
        for i, rec in enumerate(doc["buses"])
    )
    lines = tuple(
        Line(
            id=_coerce("lines", i, rec, "id", int),
            from_bus=_coerce("lines", i, rec, "from_bus", int),
            to_bus=_coerce("lines", i, rec, "to_bus", int),
            r_ohm=_coerce("lines", i, rec, "r_ohm", float),
            x_ohm=_coerce("lines", i, rec, "x_ohm", float),
            b_us=_coerce("lines", i, rec, "b_us", float),
            rating_amps=_coerce("lines", i, rec, "rating_amps", float),
            monitored=bool(rec.get("monitored", True)),
        )
        for i, rec in enumerate(doc["lines"])
    )
    switches = tuple(
        Switch(
            id=_coerce("switches", i, rec, "id", int),
            line_id=_coerce("switches", i, rec, "line_id", int),
            closed=bool(_coerce("switches", i, rec, "closed", bool)),
        )
        for i, rec in enumerate(doc.get("switches", []))
    )
    units = tuple(
        Unit(
            id=_coerce("units", i, rec, "id", int),
            bus=_coerce("units", i, rec, "bus", int),
            kind=_coerce("units", i, rec, "kind", str),
            p_nom_kw=_coerce("units", i, rec, "p_nom_kw", float),
            cos_phi=float(rec.get("cos_phi", 0.97)),
        )
        for i, rec in enumerate(doc["units"])
    )
    base = doc["base"]
    if "s_base_mva" not in base:
        raise GridFormatError(f"{source}: base section missing 's_base_mva'")
    grid = GridModel(
        buses=buses,
        lines=lines,
        switches=switches,
        units=units,
        s_base_mva=float(base["s_base_mva"]),
    )
    validate_grid(grid)
    return grid


def load_grid(path: str | Path) -> GridModel:
    path = Path(path)
    return parse_grid(path.read_text(encoding="utf-8"), source=str(path))


def load_bundled(name: str) -> GridModel:
    """Load one of the grids shipped with the package (e.g. 'cigre_mv_mod')."""
    text = resources.files("gridmon.data").joinpath(f"{name}.grid.json").read_text("utf-8")
    return parse_grid(text, source=f"bundled:{name}")


def grid_fingerprint(grid: GridModel) -> str:
    """Stable short digest of the grid content, used to key caches."""
    import hashlib

    parts = []
    for b in grid.buses:
        parts.append(f"B{b.id}:{b.kind}:{b.base_kv!r}")
    for ln in grid.lines:
        parts.append(f"L{ln.id}:{ln.from_bus}:{ln.to_bus}:{ln.r_ohm!r}:{ln.x_ohm!r}:"
                     f"{ln.b_us!r}:{ln.rating_amps!r}:{int(ln.monitored)}")
    for sw in grid.switches:
        parts.append(f"S{sw.id}:{sw.line_id}:{int(sw.closed)}")
    for u in grid.units:
        parts.append(f"U{u.id}:{u.bus}:{u.kind}:{u.p_nom_kw!r}:{u.cos_phi!r}")
    parts.append(f"base:{grid.s_base_mva!r}")
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class GridView:
    """A grid under one concrete switch configuration.

    ``line_in_service[l]`` is False for lines whose switch is open; those
    lines are excluded from the admittance matrices and carry zero current.
    Buses cut off the slack (only ever unit-less ones) are listed in
    ``dead_buses`` and held at 1.0 pu by the power flow.
    ``impedance_scale`` multiplies the grid's line r and x: None, one factor
    per line, or a ``(B, n_line)`` row per sample that stacks the matrices.
    """

    grid: GridModel
    config: tuple[bool, ...]
    line_in_service: np.ndarray = field(repr=False)
    dead_buses: frozenset[int] = frozenset()
    impedance_scale: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_bus(self) -> int:
        return self.grid.n_bus

    @cached_property
    def branches(self) -> BranchModel:
        """The view's branch admittance model, built on first use and kept."""
        return _build_branches(self)

    def with_scaled_impedance(self, factors) -> GridView:
        """This view with the grid's line r and x multiplied by ``factors``,
        ``(n_line,)`` or ``(B, n_line)``; the grid itself is shared."""
        return replace(self, impedance_scale=np.asarray(factors, dtype=float))

    def take(self, rows) -> GridView:
        """The view of the per-sample scale's ``rows``, with those rows of this
        view's matrices once they are built (else it builds its own rows on
        first use); any other view serves every sample and returns itself."""
        if self.impedance_scale is None or self.impedance_scale.ndim < 2:
            return self
        view = replace(self, impedance_scale=self.impedance_scale[rows])
        net = self.__dict__.get("branches")
        if net is not None:
            # fills the cached property, as its first use would
            view.__dict__["branches"] = net.take(rows)
        return view


def apply_switch_config(grid: GridModel, config) -> GridView:
    """Materialize the effective topology for one open/closed pattern.

    Raises IsolationError when the pattern disconnects any bus that carries
    units from the slack bus.
    """
    config = tuple(bool(c) for c in config)
    if len(config) != len(grid.switches):
        raise GridValidationError(
            f"config length {len(config)} != number of switches {len(grid.switches)}")
    in_service = np.ones(len(grid.lines), dtype=bool)
    for sw, closed in zip(grid.switches, config):
        in_service[sw.line_id] = closed
    reachable = _reachable_buses(grid, in_service)
    dead = sorted(set(grid.unit_table.bus.tolist()) - reachable)
    if dead:
        raise IsolationError(
            f"switch config {config} disconnects supplied buses {dead}")
    return GridView(grid=grid, config=config, line_in_service=in_service,
                    dead_buses=frozenset(b.id for b in grid.buses
                                         if b.id not in reachable))


@dataclass(frozen=True)
class BranchModel:
    """Pi-model branch admittances of one switch view, per unit.

    Line ``l`` draws the current ``yf[l] @ V`` out of its from bus and
    ``yt[l] @ V`` out of its to bus; rows of out-of-service lines are zero.
    ``cf`` is the from-end incidence matrix. A per-sample impedance scale
    gives ``ybus``, ``yf`` and ``yt`` a leading sample axis. All are read-only.
    """

    ybus: np.ndarray  # ([B,] n_bus, n_bus) complex
    yf: np.ndarray  # ([B,] n_line, n_bus) complex
    yt: np.ndarray  # ([B,] n_line, n_bus) complex
    cf: np.ndarray  # (n_line, n_bus), 1 at the from bus
    f_bus: np.ndarray  # (n_line,) from-bus index
    t_bus: np.ndarray  # (n_line,) to-bus index
    i_base_from: np.ndarray  # current base at the from end, A
    i_base_to: np.ndarray  # current base at the to end, A
    rating_amps: np.ndarray

    def take(self, rows) -> BranchModel:
        """The matrices of the samples ``rows`` of a stacked model; a shared
        model serves every sample and returns itself."""
        if self.ybus.ndim < 3:
            return self
        return replace(self, ybus=self.ybus[rows], yf=self.yf[rows], yt=self.yt[rows])


def _build_branches(view: GridView) -> BranchModel:
    lines = view.grid.line_table
    scale = 1.0 if view.impedance_scale is None else view.impedance_scale
    z_base, cf, ct = lines.z_base, lines.cf, lines.ct
    on = view.line_in_service
    y_series = np.where(on, np.reciprocal(lines.r_ohm * scale / z_base
                                          + 1j * (lines.x_ohm * scale / z_base)), 0.0)
    y_end = y_series + np.where(on, 0.5j * (lines.b_us * 1e-6 * z_base), 0.0)
    yf = y_end[..., None] * cf - y_series[..., None] * ct
    yt = y_end[..., None] * ct - y_series[..., None] * cf
    ybus = cf.T @ yf + ct.T @ yt
    for a in (ybus, yf, yt):
        a.setflags(write=False)
    return BranchModel(ybus=ybus, yf=yf, yt=yt, cf=cf, f_bus=lines.f_bus,
                       t_bus=lines.t_bus, i_base_from=lines.i_base_from,
                       i_base_to=lines.i_base_to, rating_amps=lines.rating_amps)


def build_admittance(view: GridView) -> np.ndarray:
    """Complex node admittance matrix in per-unit (pi model per line).

    This is the view's own read-only copy, built once per view.
    """
    return view.branches.ybus


class StatePass:
    """The voltages and currents of one state ``(n,)`` or a stack ``(B, n)``
    on ``net``, shared or stacked: ``unit = exp(j th)``, ``vc = V = v unit``,
    ``i_bus = Ybus V`` and ``i_f = Yf V``. Every state function reads them
    here, and each is computed once per pass; a current on first use, since
    the Newton-Raphson reads only ``Ybus V`` and the line flows only ``Yf
    V``. Each is elementwise or one matrix-vector product per state, so a
    state's values do not depend on its stack."""

    def __init__(self, net: BranchModel, v: np.ndarray, th: np.ndarray):
        self.net, self.v = net, v
        self.unit = np.exp(1j * th)
        self.vc = v * self.unit

    @cached_property
    def i_bus(self) -> np.ndarray:
        return (self.net.ybus @ self.vc[..., None])[..., 0]

    @cached_property
    def i_f(self) -> np.ndarray:
        return (self.net.yf @ self.vc[..., None])[..., 0]


def from_end_flows(state: StatePass, lines=None):
    """``V_f``, ``conj(I_f)`` and the flows ``S_f = V_f conj(I_f)`` out of the
    from end of every line, or of ``lines``, at the states of ``state``."""
    f_bus, i_f = state.net.f_bus, state.i_f
    if lines is not None:
        f_bus, i_f = f_bus[lines], i_f[..., lines]
    v_f, conj_f = state.vc[..., f_bus], np.conj(i_f)  # named: see :mod:`powerflow`
    return v_f, conj_f, v_f * conj_f


def bus_powers(state: StatePass) -> np.ndarray:
    """The bus injections ``S = V conj(Ybus V)`` at the states of ``state``."""
    conj_i = np.conj(state.i_bus)  # named: see :mod:`powerflow`
    return state.vc * conj_i


def dsbus_dv(state: StatePass, buses=None):
    """The derivatives of the bus injections (:func:`bus_powers`).

    Polar form of MATPOWER's ``dSbus_dV``: returns ``(ds_dth, ds_dv)``,
    where column k of ``ds_dth`` / ``ds_dv`` is the derivative
    with respect to the voltage angle / magnitude of bus k. The magnitude is
    the state variable ``v`` itself, so ``dV/dv = exp(j th)`` holds also at
    an iterate with ``v < 0`` (MATPOWER's ``V / |V|`` would flip its sign).

    ``state`` is the :class:`StatePass` of one state ``(n,)`` or a stack
    ``(B, n)``, with ``Ybus`` shared ``(n, n)`` or stacked ``(B, n, n)``.
    With ``buses`` the derivatives keep only those rows and columns. Every
    entry is an elementwise product or a per-state matrix-vector product, so
    a state's values do not depend on the stack it is in (each complex
    product with a computed right operand names it first: see
    :mod:`powerflow`).
    """
    y, vb, ub, ib = state.net.ybus, state.vc, state.unit, state.i_bus
    if buses is not None:
        y = y[..., buses[:, None], buses]
        vb, ub, ib = vb[..., buses], ub[..., buses], ib[..., buses]
    diag = np.arange(vb.shape[-1])
    # j V conj(diag(I) - Y diag(V)) and V conj(Y diag(unit)) + diag(conj(I) unit),
    # each built in one array
    ds_dth = y * vb[..., None, :]
    at_diag = ib - ds_dth[..., diag, diag]
    np.subtract(0j, ds_dth, out=ds_dth)
    ds_dth[..., diag, diag] = at_diag
    np.multiply((1j * vb)[..., None], np.conj(ds_dth, out=ds_dth), out=ds_dth)
    ds_dv = y * ub[..., None, :]
    np.multiply(vb[..., None], np.conj(ds_dv, out=ds_dv), out=ds_dv)
    ds_dv[..., diag, diag] += np.conj(ib) * ub
    return ds_dth, ds_dv


def dsf_dv(state: StatePass, lines=None):
    """From-end line flows ``S_f`` (:func:`from_end_flows`) and their
    derivatives.

    Polar form of MATPOWER's ``dSbr_dV`` for the from end, laid out as in
    :func:`dsbus_dv` with one row per line, for the :class:`StatePass` of
    one state ``(n,)`` or a stack ``(B, n)``. With ``lines`` the flows and
    derivatives keep only those rows.
    """
    net = state.net
    yf, cf = net.yf, net.cf
    if lines is not None:
        yf, cf = yf[..., lines, :], cf[lines]
    v_f, conj_f, s_f = from_end_flows(state, lines)
    at_from = conj_f[..., None] * cf
    vc, unit = state.vc[..., None, :], state.unit[..., None, :]
    conj_yv, conj_yu = np.conj(yf * vc), np.conj(yf * unit)
    ds_dth = 1j * (at_from * vc - v_f[..., None] * conj_yv)
    ds_dv = v_f[..., None] * conj_yu + at_from * unit
    return s_f, ds_dth, ds_dv
