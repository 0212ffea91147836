"""Output checks and the references they compare against.

The references are computed here, apart from gridmon: the grid and catalog
are read from their JSON files, the admittance matrix is assembled from
incidence matrices, the power flow is a Newton-Raphson on the complex
derivatives dS/dVa, dS/dVm, and the network forward pass reads the model
arrays directly. Every check takes plain data and returns a list of
problems; an empty list is a pass. The self-test feeds each one a
corrupted output and expects at least one problem back.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TRUTH_TOL_PU = 1e-6
FORWARD_RTOL = 1e-9


@dataclass(frozen=True)
class RefGrid:
    base_kv: np.ndarray
    slack: int
    s_base_mva: float
    f: np.ndarray
    t: np.ndarray
    r_ohm: np.ndarray
    x_ohm: np.ndarray
    b_us: np.ndarray
    switch_line: np.ndarray
    unit_bus: np.ndarray
    unit_sign: np.ndarray  # -1 for consumers ("load*" kinds), +1 otherwise

    @property
    def n_bus(self) -> int:
        return len(self.base_kv)


def load_ref_grid(path: Path) -> RefGrid:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    buses = sorted(doc["buses"], key=lambda b: b["id"])
    lines = sorted(doc["lines"], key=lambda ln: ln["id"])
    units = sorted(doc["units"], key=lambda u: u["id"])
    switches = sorted(doc.get("switches", []), key=lambda s: s["id"])
    return RefGrid(
        base_kv=np.array([float(b["base_kv"]) for b in buses]),
        slack=next(b["id"] for b in buses if b["kind"] == "slack"),
        s_base_mva=float(doc["base"]["s_base_mva"]),
        f=np.array([ln["from_bus"] for ln in lines]),
        t=np.array([ln["to_bus"] for ln in lines]),
        r_ohm=np.array([float(ln["r_ohm"]) for ln in lines]),
        x_ohm=np.array([float(ln["x_ohm"]) for ln in lines]),
        b_us=np.array([float(ln["b_us"]) for ln in lines]),
        switch_line=np.array([s["line_id"] for s in switches], dtype=int),
        unit_bus=np.array([u["bus"] for u in units]),
        unit_sign=np.array([-1.0 if u["kind"].startswith("load") else 1.0
                            for u in units]),
    )


def load_ref_catalog(path: Path) -> tuple[list[tuple[bool, ...]], dict]:
    """Switch configurations and the C1/C2 limits, read from catalog.json."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    configs = [tuple(bool(x) for x in cfg) for cfg in doc["switch_configs"]]
    limits = {name: (float(v), float(ld)) for name, (v, ld) in doc["criteria"].items()}
    return configs, limits


def ref_ybus(g: RefGrid, config) -> np.ndarray:
    """Per-unit bus admittance matrix, pi model, from branch incidence matrices."""
    n_line = len(g.f)
    on = np.ones(n_line, dtype=bool)
    on[g.switch_line] = np.asarray(config, dtype=bool)
    z_base = g.base_kv[g.f] ** 2 / g.s_base_mva
    y_s = np.where(on, z_base / (g.r_ohm + 1j * g.x_ohm), 0.0)
    y_sh = np.where(on, 0.5j * g.b_us * 1e-6 * z_base, 0.0)
    rows = np.arange(n_line)
    cf = np.zeros((n_line, g.n_bus))
    ct = np.zeros((n_line, g.n_bus))
    cf[rows, g.f] = 1.0
    ct[rows, g.t] = 1.0
    yff = y_s + y_sh
    return (cf.T @ (yff[:, None] * cf) + ct.T @ (yff[:, None] * ct)
            - cf.T @ (y_s[:, None] * ct) - ct.T @ (y_s[:, None] * cf))


def ref_voltages(g: RefGrid, config, p_kw, q_kvar, tol=1e-12, max_iter=30) -> np.ndarray:
    """Bus voltage magnitudes of the AC power flow, flat start, slack at 1 pu."""
    y = ref_ybus(g, config)
    s_sched = np.zeros(g.n_bus, dtype=complex)
    np.add.at(s_sched, g.unit_bus, g.unit_sign * (np.asarray(p_kw) + 1j * np.asarray(q_kvar))
              / (g.s_base_mva * 1e3))
    live = {g.slack}
    frontier = [g.slack]
    while frontier:
        bus = frontier.pop()
        for nxt in np.nonzero(np.abs(y[bus]) > 0)[0]:
            if int(nxt) not in live:
                live.add(int(nxt))
                frontier.append(int(nxt))
    pq = np.array(sorted(live - {g.slack}))
    m = len(pq)
    vm = np.ones(g.n_bus)
    va = np.zeros(g.n_bus)
    for _ in range(max_iter):
        v = vm * np.exp(1j * va)
        i_bus = y @ v
        mis = v * np.conj(i_bus) - s_sched
        f = np.concatenate([mis[pq].real, mis[pq].imag])
        if np.max(np.abs(f)) < tol:
            return vm
        v_norm = v / np.abs(v)
        ds_dvm = np.diag(v) @ np.conj(y @ np.diag(v_norm)) + np.diag(np.conj(i_bus) * v_norm)
        ds_dva = 1j * np.diag(v) @ np.conj(np.diag(i_bus) - y @ np.diag(v))
        sub = np.ix_(pq, pq)
        jac = np.block([[ds_dva[sub].real, ds_dvm[sub].real],
                        [ds_dva[sub].imag, ds_dvm[sub].imag]])
        dx = np.linalg.solve(jac, -f)
        va[pq] += dx[:m]
        vm[pq] += dx[m:]
    raise RuntimeError("reference power flow did not converge")


def ref_forward(arrays: dict, x: np.ndarray) -> np.ndarray:
    """MLP forward pass from raw model arrays: w0.., b0.., norm_*, out_*, activation."""
    z = (x - arrays["norm_mean"]) / arrays["norm_sd"]
    a = np.where(arrays["norm_mask"].astype(bool), z, x)
    n_layers = sum(1 for k in arrays if k.startswith("w") and k[1:].isdigit())
    act = {"relu": lambda u: np.maximum(u, 0.0),
           "sigmoid": lambda u: 1.0 / (1.0 + np.exp(-u)),
           "tanh": np.tanh}[arrays["activation"]]
    for k in range(n_layers):
        a = a @ arrays[f"w{k}"] + arrays[f"b{k}"]
        if k < n_layers - 1:
            a = act(a)
    return a * arrays["out_sd"] + arrays["out_mean"]


def model_file_arrays(path: Path) -> dict:
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files if k != "meta"}
        meta = json.loads(bytes(data["meta"]).decode())
    arrays["activation"] = meta["arch"]["hidden_activation"]
    return arrays


def model_arrays(model) -> dict:
    """The same arrays as model_file_arrays, read off an in-memory AnnModel."""
    arrays = {"norm_mean": model.norm_mean, "norm_sd": model.norm_sd,
              "norm_mask": model.norm_mask, "out_mean": model.out_mean,
              "out_sd": model.out_sd, "activation": model.arch.hidden_activation}
    for k, (w, b) in enumerate(zip(model.weights, model.biases)):
        arrays[f"w{k}"] = w
        arrays[f"b{k}"] = b
    return arrays


# ---- checks -------------------------------------------------------------

def check_truths(samples) -> list[str]:
    """samples: (label, program voltages, reference voltages)."""
    problems = []
    for label, got, ref in samples:
        err = float(np.max(np.abs(np.asarray(got) - np.asarray(ref))))
        if not err <= TRUTH_TOL_PU:
            problems.append(f"{label}: truth off the reference by {err:.3e} pu")
    return problems


def check_scores(label, v_err, l_err, c1, c2, sr_c1, sr_c2, n_expected, limits) -> list[str]:
    """Flags and success rates must follow from the per-pair errors and limits."""
    v_err, l_err = np.asarray(v_err, float), np.asarray(l_err, float)
    c1, c2 = np.asarray(c1, bool), np.asarray(c2, bool)
    problems = []
    if not len(v_err) == len(l_err) == len(c1) == len(c2) == n_expected:
        return [f"{label}: {len(v_err)} scored pairs, expected {n_expected}"]
    for name, flags, sr in (("C1", c1, sr_c1), ("C2", c2, sr_c2)):
        v_lim, l_lim = limits[name]
        expect = (v_err < v_lim) & (l_err < l_lim)
        bad = int(np.sum(expect != flags))
        if bad:
            problems.append(f"{label}: {bad} {name} flags disagree with the errors")
        if not abs(float(sr) - float(np.mean(expect))) <= 1e-12:
            problems.append(f"{label}: SR_{name} {sr!r} != recomputed {np.mean(expect)!r}")
    return problems


def check_all_ok(label, failed, v_err, l_err) -> list[str]:
    """Every estimate converged (not flagged failed) and is finite."""
    n_failed = int(np.sum(np.asarray(failed, bool)))
    n_nonfinite = int(np.sum(~(np.isfinite(v_err) & np.isfinite(l_err))))
    if n_failed or n_nonfinite:
        return [f"{label}: {n_failed} flagged failed, {n_nonfinite} non-finite"]
    return []


def check_min_rate(label, rate, floor) -> list[str]:
    if not float(rate) >= floor:
        return [f"{label}: {float(rate):.4f} below the floor {floor}"]
    return []


def check_forward(label, predicted, reference) -> list[str]:
    predicted, reference = np.asarray(predicted), np.asarray(reference)
    if predicted.shape != reference.shape:
        return [f"{label}: shape {predicted.shape} != {reference.shape}"]
    scale = np.maximum(np.abs(reference), 1.0)
    err = float(np.max(np.abs(predicted - reference) / scale))
    if not err <= FORWARD_RTOL:
        return [f"{label}: predict_batch off the reference forward pass by {err:.3e}"]
    return []


def check_tune_rows(rows, combos, n_pairs) -> list[str]:
    """One row per (layers, multiplier) in sweep order; rates are k / n_pairs
    with SR_C2 <= SR_C1, since C2 is the stricter criterion."""
    got = [(r.n_hidden_layers, r.layer_size_multiplier) for r in rows]
    if got != list(combos):
        return [f"tune rows {got} != combinations {list(combos)}"]
    problems = []
    for r in rows:
        label = f"tune {r.n_hidden_layers}x{r.layer_size_multiplier}"
        for name, sr in (("SR_C1", r.mean_sr_c1), ("SR_C2", r.mean_sr_c2)):
            k = sr * n_pairs
            if not (0.0 <= sr <= 1.0 and abs(k - round(k)) < 1e-6):
                problems.append(f"{label}: {name} {sr!r} is not a count over {n_pairs} pairs")
        if not r.mean_sr_c2 <= r.mean_sr_c1:
            problems.append(f"{label}: SR_C2 {r.mean_sr_c2} > SR_C1 {r.mean_sr_c1}")
        if not r.train_seconds > 0.0:
            problems.append(f"{label}: no training time reported")
    return problems
