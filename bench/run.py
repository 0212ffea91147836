"""gridmon benchmark.

    python3 bench/run.py --workload ann_study|wls_catalog|tune_sweep \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; gridmon is imported from ./src.
Set-up (a fresh import of gridmon, grid and catalog load, scenario
generation) is repeated and its median reported. Then whole rounds of the same
operations run until the next round would end after --seconds (at least
one round); end-to-end metrics are medians over the rounds. With --trace 1
the run makes one untraced round, then one traced set-up and one traced
round, and reports the per-layer metrics of the traced ones. The last line
of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
BLAS_THREADS = "1"  # no more than nproc; the matrices here are at most ~100 x 100
SETUP_REPEATS = 11

# per-layer metrics of the traced run: name -> unit
PER_LAYER = {
    "grid.build_admittance.calls": "count",
    "grid.build_admittance.self_s": "s",
    "scenarios.generate_set.self_s": "s",
    "scenarios.injections.self_s": "s",
    "powerflow.solve_pf.calls": "count",
    "powerflow.solve_pf.self_s": "s",
    "powerflow.solve_pf.us_p50": "us",
    "powerflow.solve_pf.us_p99": "us",
    "powerflow.nr_iterations_mean": "count",
    "powerflow.solve_pf.duplicate_share": "ratio",
    "measurements.simulate.calls": "count",
    "measurements.simulate.self_s": "s",
    "measurements.simulate.us_p50": "us",
    "wls.estimate.calls": "count",
    "wls.estimate.self_s": "s",
    "wls.estimate.ms_p50": "ms",
    "wls.estimate.ms_p99": "ms",
    "wls.build_pseudo.self_s": "s",
    "wls.measurement_model.calls": "count",
    "wls.measurement_model.self_s": "s",
    "wls.gn_iterations_mean": "count",
    "wls.nonconverged": "count",
    "ann.build_training_set.self_s": "s",
    "ann.train.self_s": "s",
    "ann.train.epochs": "count",
    "ann.train.row_epochs_per_s": "1/s",
    "ann.predict_batch.rows_per_s": "rows/s",
    "evaluation.run_test_case.self_s": "s",
    "evaluation.truth_cache.hit_share": "ratio",
    "tuning.tune_architecture.self_s": "s",
    "cli.generate.self_s": "s",
    "cli.train.self_s": "s",
    "cli.train.wall_s": "s",
    "cli.evaluate.self_s": "s",
    "cli.bytes_written": "B",
    "trace.overhead_s": "s",
}


def _prepare_imports() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))


def _peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(tracer, traced, untraced) -> dict:
    import numpy as np
    stats = tracer.per_name()
    empty = {"calls": 0, "durations": np.zeros(0), "self_s": 0.0}

    def stat(name):
        return stats.get(name, empty)

    def pct(name, q, scale):
        d = stat(name)["durations"]
        return float(np.percentile(d, q) * scale) if len(d) else 0.0

    def ratio(num, den):
        return float(num) / float(den) if den else 0.0

    count = tracer.counts.get
    m = {}
    for key, unit in PER_LAYER.items():
        layer, _, what = key.rpartition(".")
        if what == "calls":
            m[key] = stat(layer)["calls"]
        elif what == "self_s":
            m[key] = stat(layer)["self_s"]
    n_pf = stat("powerflow.solve_pf")["calls"]
    n_est = stat("wls.estimate")["calls"]
    m.update({
        "powerflow.solve_pf.us_p50": pct("powerflow.solve_pf", 50, 1e6),
        "powerflow.solve_pf.us_p99": pct("powerflow.solve_pf", 99, 1e6),
        "powerflow.nr_iterations_mean": ratio(count("powerflow.nr_iterations", 0), n_pf),
        "powerflow.solve_pf.duplicate_share": ratio(count("powerflow.duplicates", 0), n_pf),
        "measurements.simulate.us_p50": pct("measurements.simulate", 50, 1e6),
        "wls.estimate.ms_p50": pct("wls.estimate", 50, 1e3),
        "wls.estimate.ms_p99": pct("wls.estimate", 99, 1e3),
        "wls.gn_iterations_mean": ratio(count("wls.gn_iterations", 0), n_est),
        "wls.nonconverged": count("wls.nonconverged", 0),
        "ann.train.epochs": count("ann.train.epochs", 0),
        "ann.train.row_epochs_per_s": ratio(count("ann.train.row_epochs", 0),
                                            stat("ann.train")["durations"].sum()),
        "ann.predict_batch.rows_per_s": ratio(count("ann.predict_batch.rows", 0),
                                              stat("ann.predict_batch")["durations"].sum()),
        "evaluation.truth_cache.hit_share": ratio(count("evaluation.truth_cache.hits", 0),
                                                  count("evaluation.truth_cache.lookups", 0)),
        "cli.train.wall_s": float(stat("cli.train")["durations"].sum()),
        "cli.bytes_written": traced.outputs.get("bytes_written", 0),
        "trace.overhead_s": traced.wall_s - untraced.wall_s,
    })
    return m


def fresh_setup(wl, seed: int):
    """Import gridmon afresh, then run the workload's set-up."""
    for name in [n for n in sys.modules if n == "gridmon" or n.startswith("gridmon.")]:
        del sys.modules[name]
    import gridmon.cli  # noqa: F401  (gridmon and every module the CLI uses)
    return wl.setup(seed)


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS  # imports numpy, which set-up does not time

    wl = WORKLOADS[workload_name]
    setups = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        ctx = fresh_setup(wl, seed)
        setups.append(time.perf_counter() - t)
    import gridmon
    if Path(gridmon.__file__).resolve().parent != (SRC / "gridmon").resolve():
        raise RuntimeError(f"imported gridmon from {gridmon.__file__}, not {SRC}")

    run_dir = OUT_ROOT / f"{workload_name}-{os.getpid()}"
    problems: list[str] = []
    rounds = []
    failed = 0

    def one_round(tracer=None):
        nonlocal failed
        out = run_dir / f"round{len(rounds)}"
        if tracer is not None:
            tracer.install()
            try:
                with tracer.span("round"):
                    rnd = wl.run_round(ctx, out, tracer)
            finally:
                tracer.uninstall()
        else:
            rnd = wl.run_round(ctx, out, None)
        if out.exists():
            rnd.outputs["bytes_written"] = sum(p.stat().st_size for p in out.rglob("*")
                                               if p.is_file())
        n_failed, round_problems = wl.score_round(ctx, rnd)
        shutil.rmtree(out, ignore_errors=True)
        failed += n_failed
        problems.extend(f"round {len(rounds)}: {p}" for p in round_problems)
        rounds.append(rnd)
        return rnd

    try:
        if trace:
            from spans import Tracer
            untraced = one_round()
            tracer = Tracer()
            tracer.install()  # one traced set-up, so scenario generation shows
            try:
                with tracer.span("setup"):
                    wl.setup(seed)
            finally:
                tracer.uninstall()
            traced = one_round(tracer)
            values = layer_metrics(tracer, traced, untraced)
            metrics = {k: (values[k], u) for k, u in PER_LAYER.items()}
            tracer.write(OUT_ROOT / f"trace-{workload_name}-seed{seed}.json")
        else:
            start = time.perf_counter()
            while True:
                one_round()
                longest = max(r.wall_s for r in rounds)
                if time.perf_counter() - start + longest > seconds:
                    break
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "wall_s": (statistics.median(r.wall_s for r in rounds), "s"),
                "peak_rss_mb": (_peak_rss_mb(), "MB"),
                "eval_pairs_per_s": (statistics.median(r.pairs / r.eval_s for r in rounds),
                                     "pairs/s"),
            }
        problems += wl.final_checks(ctx)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if OUT_ROOT.exists() and not any(OUT_ROOT.iterdir()):
            OUT_ROOT.rmdir()

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": wl.attempted(ctx) * len(rounds),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gridmon benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("ann_study", "wls_catalog", "tune_sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gridmon" / "__init__.py").is_file():
        print(f"error: no gridmon sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    _prepare_imports()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
