"""Self-test of the benchmark: python3 bench/selftest.py (from the checkout root).

1. A smoke round of every workload (reduced sizes where the workload allows
   it) must score 0 failed operations and no check problems.
2. Each check is then fed one corrupted output and must report a problem.
3. Two traced rounds must give identical call, iteration and duplicate counts,
   and the traced run must report every per-layer metric.
4. run.py must exit non-zero, printing no result, without the gridmon sources.
Prints one line per test and exits 0 only if all pass.
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import run

run._prepare_imports()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

OUT = run.OUT_ROOT / "selftest"
SEED = 11
RESULTS: list[tuple[str, bool]] = []


def expect(name: str, ok: bool, detail="") -> None:
    RESULTS.append((name, bool(ok)))
    print(f"{'ok  ' if ok else 'FAIL'} {name}{'' if ok else f': {detail}'}", flush=True)


def expect_clean(name, failed, problems):
    expect(name, failed == 0 and not problems, f"failed={failed} problems={problems[:3]}")


def expect_caught(name, problems):
    expect(f"corrupted {name} is caught", bool(problems), "check passed a corrupted output")


def small_wls():
    wl = workloads.WlsCatalog()
    wl.stride = 110  # 10 scenarios
    return wl


def test_ann_study():
    wl = workloads.AnnStudy()  # the CLI's smallest scenario set; full training
    ctx = wl.setup(SEED)
    out = OUT / "ann_study"
    rnd = wl.run_round(ctx, out, None)
    expect_clean("smoke ann_study", *wl.score_round(ctx, rnd))

    truth = out / "truth_cache.npz"
    with np.load(truth) as data:
        arrays = {k: data[k] for k in data.files}
    good = dict(arrays)
    for ci in range(len(ctx.ref_configs)):
        arrays[f"v_mag_config{ci}"] = arrays[f"v_mag_config{ci}"] + 1e-5
    np.savez(truth, **arrays)
    expect_caught("truth voltage (ann_study truth cache)", wl.score_round(ctx, rnd)[1])
    np.savez(truth, **good)

    csv_path = out / "M4_ann.csv"
    text = csv_path.read_text(encoding="utf-8")
    lines = text.splitlines()
    head = next(i for i, ln in enumerate(lines) if ln.startswith("index"))
    cells = lines[head + 1].split(",")
    cells[5] = "0" if cells[5] == "1" else "1"
    lines[head + 1] = ",".join(cells)
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    expect_caught("C1 flag (ann_study M4 CSV)", wl.score_round(ctx, rnd)[1])
    csv_path.write_text(text, encoding="utf-8")

    summary = out / "summary.csv"
    text = summary.read_text(encoding="utf-8")
    summary.write_text(text.replace("M4,ann,4400,", "M4,ann,4399,"), encoding="utf-8")
    expect_caught("pair count (ann_study summary)", wl.score_round(ctx, rnd)[1])
    summary.write_text(text, encoding="utf-8")
    expect_clean("ann_study outputs restored", *wl.score_round(ctx, rnd))
    shutil.rmtree(out)


def test_wls_catalog():
    wl = small_wls()
    ctx = wl.setup(SEED)
    rnd = wl.run_round(ctx, OUT / "wls", None)
    expect_clean("smoke wls_catalog", *wl.score_round(ctx, rnd))
    expect("wls_catalog final checks", not wl.final_checks(ctx), wl.final_checks(ctx))
    results = rnd.outputs["results"]

    def rescore(case, **changes):
        saved = results[case]
        results[case] = dataclasses.replace(saved, **changes)
        try:
            return wl.score_round(ctx, rnd)[1]
        finally:
            results[case] = saved

    m4 = results["M4"]
    flipped = m4.success_c1.copy()
    flipped[0] = ~flipped[0]
    expect_caught("C1 flag (wls M4)", rescore("M4", success_c1=flipped))
    m8 = results["M8"]
    shifted = m8.v_err_max_pct.copy()
    shifted[np.argmax(m8.success_c1)] += 5.0  # a shifted estimate: its error passes C1
    expect_caught("shifted estimate (wls M8)", rescore("M8", v_err_max_pct=shifted))
    failed = m4.failed_structurally.copy()
    failed[1] = True
    expect_caught("non-converged estimate (wls M4)", rescore("M4", failed_structurally=failed))
    nan = m4.loading_err_max_pp.copy()
    nan[2] = np.nan
    expect_caught("non-finite estimate (wls M4)", rescore("M4", loading_err_max_pp=nan))
    worse = np.full_like(m8.v_err_max_pct, 2.0)
    expect_caught("M8 success rate below floor", rescore(
        "M8", v_err_max_pct=worse, success_c1=np.zeros_like(m8.success_c1),
        success_c2=np.zeros_like(m8.success_c2)))
    short = {f.name: getattr(m4, f.name)[:-1] for f in dataclasses.fields(m4)
             if isinstance(getattr(m4, f.name), np.ndarray) and f.name.startswith(
                 ("v_err", "loading_err", "success", "failed"))}
    expect_caught("pair count (wls M4)", rescore("M4", **short))


def test_tune_sweep():
    wl = workloads.TuneSweep()
    wl.layer_counts, wl.multipliers, wl.epochs, wl.test_stride = (1,), (1, 2), 10, 55
    ctx = wl.setup(SEED)
    rnd = wl.run_round(ctx, OUT / "tune", None)
    expect_clean("smoke tune_sweep", *wl.score_round(ctx, rnd))
    problems = wl.final_checks(ctx)
    expect("tune_sweep final checks", not problems, problems)
    rows = rnd.outputs["rows"]
    n_pairs = wl.n_test_pairs(ctx)
    swapped = [dataclasses.replace(rows[0], mean_sr_c2=rows[0].mean_sr_c1 + 1.0 / n_pairs)]
    expect_caught("SR_C2 above SR_C1 (tune)",
                  checks.check_tune_rows(swapped + rows[1:], wl.combos(), n_pairs))
    odd = [dataclasses.replace(rows[0], mean_sr_c1=0.5 / n_pairs)] + rows[1:]
    expect_caught("success rate off the pair grid (tune)",
                  checks.check_tune_rows(odd, wl.combos(), n_pairs))
    expect_caught("missing combination (tune)",
                  checks.check_tune_rows(rows[:1], wl.combos(), n_pairs))


def test_reference_checks():
    from gridmon.ann import AnnArchitecture, init_model, predict_batch
    ctx = small_wls().setup(SEED)
    sc = ctx.extra["scenarios"][3]
    from gridmon.grid import apply_switch_config
    from gridmon.powerflow import solve_pf
    from gridmon.scenarios import injections
    cfg = ctx.catalog.switch_configs[1]
    v = solve_pf(apply_switch_config(ctx.grid, cfg), injections(ctx.grid, sc)).v_mag_pu
    ref = checks.ref_voltages(ctx.ref_grid, ctx.ref_configs[1], sc.p_kw, sc.q_kvar)
    expect("reference power flow matches solve_pf", not checks.check_truths([("pf", v, ref)]))
    bumped = v.copy()
    bumped[7] += 2e-6
    expect_caught("truth voltage (solve_pf)", checks.check_truths([("pf", bumped, ref)]))

    model = init_model(AnnArchitecture(n_in=6, n_out=4, n_hidden_layers=2), 3)
    model.norm_mask[-2:] = False
    x = np.random.default_rng(0).standard_normal((5, 6))
    arrays = checks.model_arrays(model)
    got = predict_batch(model, x)
    expect("reference forward pass matches predict_batch",
           not checks.check_forward("fwd", got, checks.ref_forward(arrays, x)))
    expect_caught("shifted prediction", checks.check_forward(
        "fwd", got + 1e-6, checks.ref_forward(arrays, x)))
    expect_caught("rate below floor", checks.check_min_rate("sr", 0.89, 0.90))


def test_trace_repeats():
    wl = small_wls()
    ctx = wl.setup(SEED)
    seen = []
    for k in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            rnd = wl.run_round(ctx, OUT / f"trace{k}", tracer)
        finally:
            tracer.uninstall()
        calls = {name: s["calls"] for name, s in tracer.per_name().items()}
        seen.append((calls, dict(tracer.counts)))
        metrics = run.layer_metrics(tracer, rnd, rnd)
    expect("traced counts repeat exactly", seen[0] == seen[1], f"{seen[0]} != {seen[1]}")
    expect("traced run covers every per-layer metric", set(metrics) == set(run.PER_LAYER),
           sorted(set(run.PER_LAYER) ^ set(metrics)))
    from gridmon import powerflow
    expect("tracer restores the program", not hasattr(powerflow.solve_pf, "__wrapped__"))


def test_bare_directory():
    bare = OUT / "bare"
    shutil.copytree(Path(run.__file__).resolve().parent, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "wls_catalog",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    expect("run.py fails without the gridmon sources",
           proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"rc={proc.returncode} stdout={proc.stdout[-200:]}")


def main() -> int:
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir(parents=True)
    try:
        for test in (test_reference_checks, test_wls_catalog, test_tune_sweep,
                     test_trace_repeats, test_bare_directory, test_ann_study):
            test()
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
        if run.OUT_ROOT.exists() and not any(run.OUT_ROOT.iterdir()):
            run.OUT_ROOT.rmdir()
    n_bad = sum(1 for _, ok in RESULTS if not ok)
    print(f"{len(RESULTS) - n_bad}/{len(RESULTS)} self-tests passed")
    return 1 if n_bad else 0


if __name__ == "__main__":
    sys.exit(main())
