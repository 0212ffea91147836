import json

import numpy as np
import pytest

from gridmon.cli import (EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION,
                         SEED_TEST_SCENARIOS, _resolved_config, build_parser,
                         derive_seed, main)
from gridmon.grid import load_bundled
from gridmon.scenarios import DEFAULT_AXES, generate_set


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("models")
    code = run("train", "--cases", "M4", "--repetitions", "1",
               "--epochs", "25", "--seed", "5", "--out", str(out))
    assert code == EXIT_OK
    return out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0


def test_generate_writes_scenarios_and_truths(tmp_path):
    out = tmp_path / "gen"
    code = run("generate", "--repetitions", "1", "--seed", "3", "--out", str(out))
    assert code == EXIT_OK
    raw = (out / "scenarios.csv").read_bytes()
    assert b"\r" not in raw
    text = raw.decode()
    assert text.startswith("# config_hash=")
    assert text.count("\n") == 1100 + 4  # header comments + column row
    lines = text.splitlines()
    grid = load_bundled("cigre_mv_mod")
    assert lines[3].split(",") == [f"unit_{u.id}_{col}" for u in grid.units
                                   for col in ("p_kw", "q_kvar")]
    first = generate_set(DEFAULT_AXES, grid, 1, derive_seed(3, SEED_TEST_SCENARIOS))[0]
    values = np.array([float(x) for x in lines[4].split(",")])
    assert np.array_equal(values[0::2], first.p_kw)
    assert np.array_equal(values[1::2], first.q_kvar)
    assert (out / "truth_cache.npz").exists()


def test_generate_truth_file_holds_each_pairs_state(tmp_path):
    from gridmon.evaluation import load_catalog
    from gridmon.grid import apply_switch_config
    from gridmon.powerflow import solve_pf, truth_keys
    from gridmon.scenarios import bus_injections, injections, unit_powers

    out = tmp_path / "gen"
    assert run("generate", "--repetitions", "1", "--seed", "3", "--out", str(out)) == EXIT_OK
    grid = load_bundled("cigre_mv_mod")
    configs = load_catalog(grid).switch_configs
    scenarios = generate_set(DEFAULT_AXES, grid, 1, derive_seed(3, SEED_TEST_SCENARIOS))
    views = [apply_switch_config(grid, config) for config in configs]
    keys = truth_keys(views, bus_injections(grid, *unit_powers(scenarios)))
    with np.load(out / "truth_cache.npz") as data:
        assert set(data.files) == {"config_hash", "seed"} | {
            f"{name}_config{c}" for c in range(len(configs))
            for name in ("v_mag", "v_ang", "loading", "key")}
        assert [str(data[f"key_config{c}"]) for c in range(len(configs))] == keys
        for c, s in ((0, 0), (1, 517), (3, 1099)):
            sol = solve_pf(views[c], injections(grid, scenarios[s]))
            assert data[f"v_mag_config{c}"][s].tobytes() == sol.v_mag_pu.tobytes()
            assert data[f"v_ang_config{c}"][s].tobytes() == sol.v_ang_rad.tobytes()
            assert data[f"loading_config{c}"][s].tobytes() == sol.loading_pct.tobytes()


def _rewrite_truth_file(path, **fields):
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    np.savez(path, **{**arrays, **fields})


def test_evaluate_reuses_generated_truths_only_when_they_match(tmp_path, monkeypatch):
    """``evaluate`` into generate's directory solves none of M4's truths;
    without the file, with one from another seed, or with its keys
    rewritten, it solves them all. Every output is byte-identical."""
    from gridmon import powerflow

    for name, seed in (("same", 5), ("seed", 6), ("keys", 5), ("zero", 5)):
        assert run("generate", "--repetitions", "1", "--seed", str(seed),
                   "--out", str(tmp_path / name)) == EXIT_OK
    # the seed-5 tables under the seed-6 file's keys, and under made-up ones
    with np.load(tmp_path / "seed" / "truth_cache.npz") as data:
        other = {k: data[k] for k in data.files if k.startswith("key_")}
    _rewrite_truth_file(tmp_path / "keys" / "truth_cache.npz", **other)
    _rewrite_truth_file(tmp_path / "zero" / "truth_cache.npz",
                        **{k: "0" * 32 for k in other})
    solved = []
    real = powerflow.solve_flows

    def counting(view, p, q):
        solved.append(len(p))
        return real(view, p, q)

    monkeypatch.setattr(powerflow, "solve_flows", counting)
    outputs = {}
    for name in ("same", "none", "seed", "keys", "zero"):
        solved.clear()
        assert run("evaluate", "--cases", "M4", "--methods", "wls", "--repetitions", "1",
                   "--seed", "5", "--out", str(tmp_path / name)) == EXIT_OK
        assert sum(solved) == (0 if name == "same" else 4400), name
        outputs[name] = [(tmp_path / name / f).read_bytes()
                         for f in ("M4_wls.csv", "M4_stats.json", "summary.csv")]
    assert all(files == outputs["none"] for files in outputs.values())


def test_train_writes_models_and_history(trained_dir):
    npz = sorted(p.name for p in trained_dir.glob("*.npz"))
    assert len(npz) == 2
    assert npz[0].endswith("_loading.npz") and npz[1].endswith("_voltage.npz")
    history = (trained_dir / "training_history.csv").read_text()
    assert "best_epoch" in history


def test_evaluate_two_methods_two_rows(tmp_path, trained_dir):
    out = tmp_path / "eval"
    code = run("evaluate", "--cases", "M4", "--methods", "ann,wls",
               "--repetitions", "1", "--seed", "5",
               "--models", str(trained_dir), "--out", str(out))
    assert code == EXIT_OK
    summary = (out / "summary.csv").read_text().splitlines()
    rows = [line for line in summary if line.startswith("M4,")]
    assert len(rows) == 2
    assert {"M4,ann", "M4,wls"} == {",".join(r.split(",")[:2]) for r in rows}
    assert (out / "M4_ann.csv").exists()
    assert (out / "M4_stats.json").exists()


def test_evaluate_starred_case_distinct(tmp_path, trained_dir):
    out_plain = tmp_path / "plain"
    out_star = tmp_path / "star"
    for out, corr in ((out_plain, "off"), (out_star, "on")):
        code = run("evaluate", "--cases", "F1", "--methods", "ann",
                   "--repetitions", "1", "--seed", "5",
                   "--v-correction", corr,
                   "--models", str(trained_dir), "--out", str(out))
        assert code == EXIT_OK
    plain = (out_plain / "summary.csv").read_text()
    star = (out_star / "summary.csv").read_text()
    assert "F1,ann" in plain
    assert "F1*,ann" in star
    assert (out_star / "F1star_ann.csv").exists()
    sr_plain = float(plain.splitlines()[-1].split(",")[3])
    sr_star = float(star.splitlines()[-1].split(",")[3])
    assert sr_star > sr_plain


def test_rerun_reproduces_identical_outputs(tmp_path, trained_dir):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = run("evaluate", "--cases", "M4", "--methods", "wls",
                   "--repetitions", "1", "--seed", "5",
                   "--models", str(trained_dir), "--out", str(out))
        assert code == EXIT_OK
        outs.append(out)
    for fname in ("summary.csv", "M4_wls.csv", "summary.txt"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_evaluate_without_models_fails_closed(tmp_path):
    out = tmp_path / "nomodels"
    code = run("evaluate", "--cases", "M4", "--methods", "ann",
               "--repetitions", "1", "--models", str(tmp_path), "--out", str(out))
    assert code == EXIT_VALIDATION


def test_evaluate_checks_every_model_before_scoring(tmp_path, trained_dir, capsys):
    out = tmp_path / "m8missing"
    code = run("evaluate", "--cases", "M4,M8", "--methods", "ann",
               "--repetitions", "1", "--seed", "5",
               "--models", str(trained_dir), "--out", str(out))
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: case M8: no trained model")
    assert not (out / "M4_ann.csv").exists()


@pytest.mark.parametrize("argv", [
    ("train", "--epochs", "0"),
    ("train", "--batch-size", "0"),
    ("train", "--cases", "M4,XX"),
    ("tune", "--layers", ","),
    ("tune", "--multipliers", "x"),
    ("tune", "--layers", "-1"),
])
def test_bad_input_fails_before_any_output(tmp_path, capsys, argv):
    code = run(argv[0], "--cases", "M4", "--repetitions", "1", "--out", str(tmp_path),
               *argv[1:])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(tmp_path.iterdir())


def test_unknown_grid_is_validation_error(tmp_path):
    code = run("generate", "--grid", str(tmp_path / "missing.json"),
               "--out", str(tmp_path / "x"))
    assert code == EXIT_VALIDATION


def test_config_file_overrides_flags(tmp_path, trained_dir):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"cases": "M4", "methods": "wls"}))
    out = tmp_path / "cfgrun"
    code = run("evaluate", "--cases", "F1", "--methods", "ann,wls",
               "--repetitions", "1", "--seed", "5", "--config", str(cfg),
               "--models", str(trained_dir), "--out", str(out))
    assert code == EXIT_OK
    summary = (out / "summary.csv").read_text()
    assert "M4,wls" in summary
    assert "F1" not in summary and "ann" not in summary.split("\n", 5)[-1]


@pytest.mark.parametrize("command, overrides", [
    ("generate", {"repetitions": "x"}),
    ("generate", {"repetitions": 1.5}),
    ("generate", {"seed": True}),
    ("evaluate", {"repetitions": "two"}),
    ("evaluate", {"methods": 2}),
    ("evaluate", {"v_correction": "maybe"}),
    ("evaluate", {"cases": 4}),
    ("generate", {"out": 5}),
    ("tune", {"layers": True}),
    ("tune", {"cases": ["M4"]}),
])
def test_bad_config_value_fails_before_any_output(tmp_path, capsys, command, overrides):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(overrides))
    out = tmp_path / "out"
    wls_only = ("--methods", "wls") if command == "evaluate" else ()
    code = run(command, *wls_only, "--config", str(cfg), "--out", str(out))
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_unknown_config_key_fails_before_any_output(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"jobs": 2}))
    out = tmp_path / "out"
    code = run("evaluate", "--methods", "wls", "--config", str(cfg), "--out", str(out))
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: config file sets unknown keys ['jobs']\n"
    assert not out.exists()


def test_evaluate_header_hash_is_pinned(tmp_path):
    """A fixed evaluate run's config hash, pinned: a change to which settings
    are hashed, or how, changes every output header."""
    out = tmp_path / "pinned"
    assert run("evaluate", "--cases", "M4", "--methods", "wls", "--repetitions", "1",
               "--seed", "5", "--out", str(out)) == EXIT_OK
    for name in ("M4_wls.csv", "summary.csv", "summary.txt"):
        assert (out / name).read_text().startswith("# config_hash=74acf47631a8\n")
    assert json.loads((out / "M4_stats.json").read_text())["config_hash"] == "74acf47631a8"


def test_config_strings_go_through_flag_types(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"repetitions": "1", "seed": "3"}))
    assert run("generate", "--config", str(cfg), "--out", str(tmp_path / "cfg")) == EXIT_OK
    assert run("generate", "--repetitions", "1", "--seed", "3",
               "--out", str(tmp_path / "flags")) == EXIT_OK
    for name in ("scenarios.csv", "truth_cache.npz"):
        assert ((tmp_path / "cfg" / name).read_bytes()
                == (tmp_path / "flags" / name).read_bytes())


def test_config_int_lists_take_one_int(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"layers": 1, "multipliers": "2"}))
    args = build_parser().parse_args(["tune", "--config", str(cfg)])
    assert _resolved_config(args, ("layers", "multipliers")) == {"layers": 1,
                                                                "multipliers": "2"}


def test_wls_only_needs_no_models(tmp_path):
    out = tmp_path / "wlsonly"
    code = run("evaluate", "--cases", "M0", "--methods", "wls",
               "--repetitions", "1", "--seed", "2", "--out", str(out))
    assert code == EXIT_OK
    assert "M0,wls" in (out / "summary.csv").read_text()


def test_evaluate_diverged_power_flow_is_numerical_failure(tmp_path, monkeypatch, capsys):
    def diverge(view, p, q):
        return (np.full(p.shape, np.nan), np.full(p.shape, np.nan),
                np.full((len(p), len(view.grid.lines)), np.nan), np.ones(len(p), dtype=bool))

    monkeypatch.setattr("gridmon.powerflow.solve_flows", diverge)
    out = tmp_path / "diverged"
    code = run("evaluate", "--cases", "M0", "--methods", "wls",
               "--repetitions", "1", "--out", str(out))
    assert code == EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith(
        "error: diverged power flows exceed budget (4400/4400)")
    assert (out / "summary.csv").exists()


def test_stats_json_is_strict_when_every_pair_fails(tmp_path, monkeypatch):
    def diverge(view, p, q):
        return (np.full(p.shape, np.nan), np.full(p.shape, np.nan),
                np.full((len(p), len(view.grid.lines)), np.nan), np.ones(len(p), dtype=bool))

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    monkeypatch.setattr("gridmon.powerflow.solve_flows", diverge)
    out = tmp_path / "failed"
    code = run("evaluate", "--cases", "M0", "--methods", "wls",
               "--repetitions", "1", "--out", str(out))
    assert code == EXIT_NUMERICAL
    stats = json.loads((out / "M0_stats.json").read_text(), parse_constant=reject)
    assert len(stats["buses"]) == 15
    assert all(row["wls_max"] is None for row in stats["buses"] + stats["lines"])


def _csv_rows(path):
    return [line for line in path.read_text().splitlines()
            if line and not line.startswith("#")]


def test_evaluate_scores_diverged_pair_as_failed(tmp_path, trained_dir, monkeypatch,
                                                 capsys):
    from gridmon import powerflow

    argv = ["evaluate", "--cases", "M4", "--methods", "ann,wls",
            "--repetitions", "1", "--seed", "5", "--models", str(trained_dir)]
    assert run(*argv, "--out", str(tmp_path / "clean")) == EXIT_OK
    assert "diverged" not in capsys.readouterr().out

    target = 1102  # pairs run config-major: config 1, scenario 2
    real = powerflow.solve_flows
    calls = []

    def diverge_once(view, p, q):
        v, th, loading, diverged = real(view, p, q)
        for i in range(len(p)):
            calls.append(None)
            if len(calls) == target + 1:
                v[i] = th[i] = loading[i] = np.nan
                diverged[i] = True
        return v, th, loading, diverged

    monkeypatch.setattr("gridmon.powerflow.solve_flows", diverge_once)
    assert run(*argv, "--out", str(tmp_path / "diverged")) == EXIT_OK
    assert "1 of 4400 evaluated pairs had a diverged power flow" in capsys.readouterr().out
    for name in ("M4_ann.csv", "M4_wls.csv"):
        clean = _csv_rows(tmp_path / "clean" / name)
        diverged = _csv_rows(tmp_path / "diverged" / name)
        assert len(diverged) == len(clean) == 4401
        row = diverged[target + 1].split(",")
        assert row[:3] == [str(target), "1", "2"]
        assert row[5:] == ["0", "0", "1"]
        assert diverged[:target + 1] == clean[:target + 1]
        assert diverged[target + 2:] == clean[target + 2:]


def test_evaluate_reports_unseen_switch_patterns(tmp_path, trained_dir, capsys):
    code = run("evaluate", "--cases", "M4,T2", "--methods", "ann",
               "--repetitions", "1", "--seed", "5",
               "--models", str(trained_dir), "--out", str(tmp_path / "eval"))
    assert code == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    # T2 flips the assumed state of switch 2, which turns each of the four
    # training configs into a pattern the model never saw
    unseen = [line for line in out if "unseen in training" in line]
    assert unseen == ["T2    ann  4400 of 4400 evaluated pairs had switch bits "
                      "unseen in training"]
    # one timing line per case; the method lines carry no time
    assert [line.split()[:3] for line in out if "case time" in line] == \
        [["M4", "case", "time"], ["T2", "case", "time"]]
    assert all(not line.endswith(" s)") for line in out if "SR_C1" in line)
