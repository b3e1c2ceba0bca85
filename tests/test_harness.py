import json
import math
import os
import subprocess
import sys
from concurrent.futures import Future
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import magheat as mh
from magheat.errors import ConfigError
from magheat.harness import ExperimentConfig, compare, load_summary, run


def test_config_roundtrip():
    cfg = ExperimentConfig(kind="flux", label="t", field=mh.harness.DIPOLE_FIELD, seed=3)
    again = ExperimentConfig.from_json(cfg.to_json())
    assert again == cfg


def test_config_validation_messages():
    with pytest.raises(ConfigError, match="unknown experiment kind"):
        ExperimentConfig.from_dict({"kind": "nope", "label": "x"})
    with pytest.raises(ConfigError, match="unknown config fields"):
        ExperimentConfig.from_dict({"kind": "flux", "label": "x", "bogus": 1})
    with pytest.raises(ConfigError, match="missing required"):
        ExperimentConfig.from_dict({"kind": "flux"})
    with pytest.raises(ConfigError, match="requires a field"):
        ExperimentConfig.from_dict({"kind": "lambda-curve", "label": "x"})
    with pytest.raises(ConfigError, match="invalid grid"):
        ExperimentConfig.from_dict({"kind": "flux", "label": "x",
                                    "field": mh.harness.ZERO_FIELD,
                                    "grid": {"r_dom": 4.0, "n": 4}})


def test_run_flux_dipole(tmp_path):
    cfg = ExperimentConfig(kind="flux", label="dip", field=mh.harness.DIPOLE_FIELD)
    rec = run(cfg, out_dir=tmp_path)
    summary = load_summary(rec.outputs[0])
    assert summary["pass"]
    assert abs(summary["total_flux"]) < 1e-12
    assert (tmp_path / "dip" / "record.json").exists()


def test_run_spectrum_exact_csv(tmp_path):
    cfg = ExperimentConfig(kind="spectrum-exact", label="spec", fluxes=[0.5], count=6)
    rec = run(cfg, out_dir=tmp_path)
    summary = load_summary(rec.outputs[0])
    assert summary["pass"]
    csv_path = [p for p in rec.outputs if p.endswith(".csv")][0]
    lines = open(csv_path).read().strip().splitlines()
    assert lines[0] == "value,n,m,multiplicity"
    first = lines[1].split(",")
    assert float(first[0]) == 0.75


def test_run_determinism(tmp_path):
    cfg = ExperimentConfig(kind="gauge-check", label="g", field=mh.harness.OFFSET_FIELD,
                           grid={"r_dom": 6.0, "n": 32}, seed=11)
    run(cfg, out_dir=tmp_path / "a")
    run(cfg, out_dir=tmp_path / "b")
    bytes_a = (tmp_path / "a" / "g" / "summary.json").read_bytes()
    bytes_b = (tmp_path / "b" / "g" / "summary.json").read_bytes()
    assert bytes_a == bytes_b


def test_compare_identical_and_kind_mismatch(tmp_path):
    cfg = ExperimentConfig(kind="flux", label="f1", field=mh.harness.ZERO_FIELD)
    rec = run(cfg, out_dir=tmp_path)
    summary = load_summary(rec.outputs[0])
    assert compare(summary, summary) == {}
    # equal Nones agree; a key on one side only is still a diff
    assert compare({"kind": "k", "x": None}, {"kind": "k", "x": None}) == {}
    assert compare({"kind": "k", "x": None}, {"kind": "k"}) == {
        "x": {"a": None, "b": "<missing>"}}
    other = dict(summary, kind="hardy")
    with pytest.raises(ConfigError):
        compare(summary, other)


def test_compare_refinement_ratio(tmp_path, zero_field):
    # two zero-field eigenvalue runs at n and 2n: errors fall by about 4
    recs = {}
    for n in (48, 96):
        cfg = ExperimentConfig(kind="lambda-curve", label=f"ho{n}",
                               field=mh.harness.ZERO_FIELD,
                               grid={"r_dom": 12.0, "n": n}, s_values=[0.0])
        recs[n] = load_summary(run(cfg, out_dir=tmp_path).outputs[0])
    diff = compare(recs[48], recs[96], rtol=1e-12)
    assert "raw_last" in {k.split(".")[-1] for k in diff}
    e1 = abs(recs[48]["raw_last"] - 0.5)
    e2 = abs(recs[96]["raw_last"] - 0.5)
    assert 2.6 < e1 / e2 < 5.6


def test_gauge_transform_compare(tmp_path, rng):
    # spectra before and after a discrete gauge transformation agree to 1e-10
    grid = mh.build_grid(6.0, 40)
    field = mh.make_field("radial-step", {"b0": 1.0, "r": 1.0})
    phases = mh.peierls_phases(grid, field)
    op = mh.assemble_magnetic(phases, harmonic=True)
    vals = np.array([p[0] for p in mh.smallest_eigs(op, k=5)[0]])
    chi = rng.standard_normal((grid.n, grid.n))
    op2 = mh.assemble_magnetic(phases.gauge_transformed(chi), harmonic=True)
    vals2 = np.array([p[0] for p in mh.smallest_eigs(op2, k=5)[0]])
    assert np.max(np.abs(vals - vals2)) < 1e-10


def test_atomic_write_leaves_no_partials(tmp_path, monkeypatch):
    from magheat import harness

    target = tmp_path / "out.json"
    real_replace = os.replace

    def boom(src, dst):
        raise OSError("simulated crash")

    monkeypatch.setattr(os, "replace", boom)
    with pytest.raises(OSError):
        harness._atomic_write(target, "data")
    monkeypatch.setattr(os, "replace", real_replace)
    assert not target.exists()
    assert list(tmp_path.glob("*.tmp")) == []


def test_run_decay_report_small(tmp_path):
    cfg = ExperimentConfig(
        kind="decay-report", label="rep", field=mh.harness.ZERO_FIELD,
        report={"ss_r_dom": 8.0, "ss_n": 64, "s_values": [0.0, 0.5, 1.0],
                "s_final": 1.0, "phys_r_dom": 16.0, "phys_n": 127,
                "t_final": 6.0, "dt": 0.1, "width": 1.2,
                "fit_window": [2.0, 6.0], "ss_fit_window": [0.3, 1.0],
                "initial_data": ["gaussian"]})
    rec = run(cfg, out_dir=tmp_path)
    # every referenced output exists and parses
    for path in rec.outputs:
        assert os.path.exists(path)
        if path.endswith(".json"):
            json.load(open(path))
        else:
            lines = open(path).read().strip().splitlines()
            assert len(lines) >= 2 and "," in lines[0]
    summary = load_summary(rec.outputs[0])
    assert summary["flags"]["energy_bound"]
    assert summary["flags"]["global_bound"]
    assert any(p.endswith("fit_residuals.csv") for p in rec.outputs)


def test_suite_definitions():
    for name in ("quick", "oracle-only", "paper-headline"):
        configs = mh.preset_suite(name)
        assert configs
        for cfg in configs:
            cfg.validate()
        labels = [c.kind for c in configs]
        if name == "oracle-only":
            # closed-form checks only: no kind that runs a 2-D eigensolve
            assert set(labels) <= {"spectrum-exact", "flux"}
    headline = mh.preset_suite("paper-headline")
    fluxes = set()
    for cfg in headline:
        if cfg.field:
            fluxes.add(round(mh.total_flux(
                mh.field.field_from_descriptor(cfg.field)), 4))
    assert {0.0, 0.5, 1.0, 1.3} <= fluxes
    assert any(cfg.field == mh.harness.DIPOLE_FIELD for cfg in headline)
    with pytest.raises(ConfigError):
        mh.preset_suite("bogus")


def test_cli_suite_smoke(tmp_path):
    from magheat.cli import main

    assert main(["suite", "oracle-only", "--out", str(tmp_path)]) == 0
    assert main(["suite", "no-such-suite", "--out", str(tmp_path)]) == 2


def test_cli_flux_run(tmp_path):
    cfg = ExperimentConfig(kind="flux", label="cli-flux", field=mh.harness.DIPOLE_FIELD)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json())
    from magheat.cli import main

    assert main(["flux", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "cli-flux" / "summary.json").exists()
    # kind mismatch is a config error -> exit 2
    assert main(["hardy", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert main(["flux", "--config", str(tmp_path / "missing.json")]) == 2


def test_cli_compare(tmp_path):
    cfg = ExperimentConfig(kind="flux", label="c1", field=mh.harness.ZERO_FIELD)
    rec1 = run(cfg, out_dir=tmp_path / "a")
    rec2 = run(cfg, out_dir=tmp_path / "b")
    from magheat.cli import main

    assert main(["compare", rec1.outputs[0], rec2.outputs[0]]) == 0
    # differing summaries diff -> exit 1
    other = ExperimentConfig(kind="flux", label="c1",
                             field=mh.harness.DIPOLE_FIELD)
    rec3 = run(other, out_dir=tmp_path / "c")
    assert main(["compare", rec1.outputs[0], rec3.outputs[0]]) == 1


_STEP = {"kind": "radial-step", "params": {"b0": 1.0, "r": 1.0}}
_GRID = {"r_dom": 7.0, "n": 32}
MALFORMED = {
    "grid-r_dom-string": {"kind": "lambda-curve", "field": _STEP,
                          "grid": {"r_dom": "7", "n": 32}},
    "grid-r_dom-nan": {"kind": "lambda-curve", "field": _STEP,
                       "grid": {"r_dom": math.nan, "n": 32}},
    "grid-n-fractional": {"kind": "lambda-curve", "field": _STEP,
                          "grid": {"r_dom": 7.0, "n": 32.5}},
    "field-b0-string": {"kind": "flux", "field": {"kind": "radial-step", "params": {"b0": "a"}}},
    "field-center-string": {"kind": "flux",
                            "field": {"kind": "offset-bump", "params": {"center": ["a", 0.0]}}},
    "field-center-scalar": {"kind": "flux",
                            "field": {"kind": "offset-bump", "params": {"center": 1.0}}},
    "evolve-frame": {"kind": "evolve", "field": _STEP, "grid": _GRID,
                     "evolve": {"frame": "sideways"}},
    "hardy-degenerate-grid": {"kind": "hardy", "field": _STEP, "h": 5.0, "sweep": [4.0]},
    "hardy-negative-h": {"kind": "hardy", "field": _STEP, "h": -0.25},
    "hardy-infinite-sweep": {"kind": "hardy", "field": _STEP, "sweep": [math.inf]},
    "radial-r_max-small": {"kind": "spectrum-numeric",
                           "radial": {"r_max": 10.0, "m_points": 800}},
    "radial-m_points-small": {"kind": "spectrum-numeric",
                              "radial": {"r_max": 20.0, "m_points": 100}},
    "report-ss_n-string": {"kind": "decay-report", "field": _STEP, "report": {"ss_n": "64"}},
    "report-ss_n-small": {"kind": "decay-report", "field": _STEP, "report": {"ss_n": 8}},
    "report-phys_r_dom-negative": {"kind": "decay-report", "field": _STEP,
                                   "report": {"phys_r_dom": -24.0}},
    "report-s_values-two": {"kind": "decay-report", "field": _STEP,
                            "report": {"s_values": [0.0, 1.0]}},
    "report-s_values-unsorted": {"kind": "decay-report", "field": _STEP,
                                 "report": {"s_values": [0.0, 2.0, 1.0]}},
    "report-ds-large": {"kind": "decay-report", "field": _STEP, "report": {"ds": 0.1}},
    "report-fit-window-reversed": {"kind": "decay-report", "field": _STEP,
                                   "report": {"fit_window": [12.0, 4.0]}},
    "report-initial-data-unknown": {"kind": "decay-report", "field": _STEP,
                                    "report": {"initial_data": ["gaussian", "square"]}},
    "report-tolerance-string": {"kind": "decay-report", "field": _STEP,
                                "report": {"gamma_tol": "0.05"}},
    "evolve-ds-large": {"kind": "evolve", "field": _STEP, "grid": _GRID,
                        "evolve": {"frame": "self-similar", "ds": 0.1}},
    # fit windows holding fewer than the 10 samples a rate fit needs
    "evolve-fit-window-narrow": {"kind": "evolve", "field": _STEP,
                                 "grid": {"r_dom": 16.0, "n": 63},
                                 "evolve": {"frame": "physical", "t_final": 1.0, "dt": 0.1,
                                            "fit_window": [0.2, 0.6]}},
    "evolve-ss-fit-window-narrow": {"kind": "evolve", "field": mh.harness.ZERO_FIELD,
                                    "grid": _GRID,
                                    "evolve": {"frame": "self-similar", "s_final": 1.0,
                                               "ds": 0.05, "fit_window": [0.5, 0.7]}},
    "report-fit-window-narrow": {"kind": "decay-report", "field": _STEP,
                                 "report": {"fit_window": [4.0, 4.5]}},
    "report-ss-fit-window-narrow": {"kind": "decay-report", "field": _STEP,
                                    "report": {"ss_fit_window": [2.0, 2.3]}},
    # step counts round(span / step) that overflow to infinity
    "evolve-step-count-infinite": {"kind": "evolve", "field": _STEP, "grid": _GRID,
                                   "evolve": {"frame": "physical", "t_final": 1e308,
                                              "dt": 1e-300, "width": 0.5}},
    "evolve-ss-step-count-infinite": {"kind": "evolve", "field": mh.harness.ZERO_FIELD,
                                      "grid": _GRID,
                                      "evolve": {"frame": "self-similar", "s_final": 1e308}},
    "report-step-count-infinite": {"kind": "decay-report", "field": mh.harness.ZERO_FIELD,
                                   "report": {"ss_r_dom": 6.0, "ss_n": 32,
                                              "s_values": [0.0, 1.0, 2.0],
                                              "t_final": 1e308, "dt": 1e-300}},
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_cli_malformed_config_exit_code(tmp_path, name):
    # each is a config error (exit 2) caught before any output is written
    from magheat.cli import main

    config = {"label": "bad", **MALFORMED[name]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert main([config["kind"], "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "bad").exists()
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(config)


def test_fit_window_sample_count_matches_the_fit(tmp_path):
    # t = 0.1 .. 1.0 holds exactly the 10 samples the fit needs, on times
    # accumulated step by step; t = 0.2 .. 1.0 holds 9
    evolve = {"frame": "physical", "t_final": 1.0, "dt": 0.1, "fit_window": [0.1, 1.0]}
    cfg = ExperimentConfig.from_dict({"kind": "evolve", "label": "ten",
                                      "field": mh.harness.ZERO_FIELD,
                                      "grid": {"r_dom": 16.0, "n": 63}, "evolve": evolve})
    summary = load_summary(run(cfg, out_dir=tmp_path).outputs[0])
    assert math.isfinite(summary["gamma"])
    with pytest.raises(ConfigError, match="holds 9 samples"):
        ExperimentConfig.from_dict({**asdict(cfg), "evolve": {**evolve,
                                                              "fit_window": [0.2, 1.0]}})


@pytest.mark.parametrize("grid, evolve", [
    ({"r_dom": 16.0, "n": 63},
     {"frame": "physical", "t_final": 2.0, "dt": 0.1, "fit_window": [1.0, 2.0]}),
    (_GRID, {"frame": "self-similar", "s_final": 1.0, "ds": 0.05,
             "fit_window": [0.5, 0.975]}),
])
def test_grid_aligned_fit_window_fits_what_validate_counts(tmp_path, grid, evolve):
    # accumulated times land a rounding error off the window ends (t_10 =
    # 0.9999999999999999, t_20 = 2.0000000000000004); the fit keeps them
    config = {"kind": "evolve", "label": "aligned", "field": mh.harness.ZERO_FIELD,
              "grid": grid, "evolve": evolve}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    from magheat.cli import main

    assert main(["evolve", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    summary = load_summary(tmp_path / "aligned" / "summary.json")
    assert math.isfinite(summary["gamma" if evolve["frame"] == "physical" else "slope"])


def test_failed_run_leaves_no_empty_directory(tmp_path):
    # the domain is too small for t_final: boundary contamination, exit 1
    config = {"kind": "evolve", "label": "fw", "field": _STEP,
              "grid": {"r_dom": 8.0, "n": 31},
              "evolve": {"frame": "physical", "t_final": 1.0, "dt": 0.1}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    from magheat.cli import main

    assert main(["evolve", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
    assert not (tmp_path / "fw").exists()


def test_config_validates_field_descriptor():
    with pytest.raises(ConfigError, match="field"):
        ExperimentConfig.from_dict({
            "kind": "flux", "label": "bad",
            "field": {"kind": "no-such", "params": {}}})


def test_cli_runtime_failure_exit_code(tmp_path):
    # a self-similar run beyond the resolution cap is a numeric failure (1)
    cfg = ExperimentConfig(kind="evolve", label="cap",
                           field=mh.harness.DIPOLE_FIELD,
                           grid={"r_dom": 6.0, "n": 32},
                           evolve={"frame": "self-similar", "s_final": 6.0,
                                   "ds": 0.05, "width": 1.0})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json())
    from magheat.cli import main

    assert main(["evolve", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1


def test_cli_numeric_failure_exit_code(tmp_path):
    # an impossible tolerance flips the pass flag -> exit code 1
    cfg = ExperimentConfig(kind="lambda-curve", label="fail",
                           field=mh.harness.ZERO_FIELD,
                           grid={"r_dom": 8.0, "n": 32}, s_values=[0.0],
                           tolerances={"limit_abs": 1e-12})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json())
    from magheat.cli import main

    assert main(["lambda-curve", "--config", str(cfg_path),
                 "--out", str(tmp_path)]) == 1


MALFORMED_FILES = {
    "compare-not-json": ("compare", b"{not json"),
    "compare-json-list": ("compare", b"[1, 2]"),
    "config-directory": ("flux", None),
    "config-not-utf8": ("flux", b'{"kind": "flux", "label": "\xff"}'),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_FILES))
def test_cli_malformed_file_exit_code(tmp_path, name):
    from magheat.cli import main

    command, content = MALFORMED_FILES[name]
    path = tmp_path / "input"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    if command == "compare":
        argv = ["compare", str(path), str(path)]
    else:
        argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
    assert main(argv) == 2


def test_run_suite_parallel_workers(tmp_path):
    recs = mh.run_suite("oracle-only", out_dir=tmp_path, workers=2)
    assert all(load_summary(r.outputs[0])["pass"] for r in recs)


def test_run_suite_caps_workers_at_suite_size(tmp_path, monkeypatch):
    # a serial stand-in records the pool size; no real pool is started
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(mh.harness, "ProcessPoolExecutor", SerialPool)
    recs = mh.run_suite("oracle-only", out_dir=tmp_path, workers=5000)
    assert sizes == [len(mh.preset_suite("oracle-only"))]
    assert len(recs) == sizes[0]


def test_cli_entrypoint_subprocess(tmp_path):
    cfg = ExperimentConfig(kind="spectrum-exact", label="sp", fluxes=[0.0], count=3)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json())
    env = {**os.environ, "PYTHONPATH": str(Path(mh.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "magheat.cli", "spectrum-exact",
         "--config", str(cfg_path), "--out", str(tmp_path)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["pass"]


def test_python_dash_m_entrypoint(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(mh.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "magheat", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "usage: magheat" in proc.stdout
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"label": "bad", **MALFORMED["report-ss_n-string"]}))
    proc = subprocess.run([sys.executable, "-m", "magheat", "decay-report",
                           "--config", str(cfg_path), "--out", str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2, proc.stderr
    assert "config error" in proc.stderr


def test_env_default_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("MAGHEAT_OUT", str(tmp_path / "envout"))
    cfg = ExperimentConfig(kind="flux", label="envrun", field=mh.harness.ZERO_FIELD)
    run(cfg)
    assert (tmp_path / "envout" / "envrun" / "summary.json").exists()


# runner branches that only the paper-headline suite reaches, on small grids:
# each config with the flags and summary keys its run must produce
RUNNER_BRANCHES = {
    "evolve-physical-oracle-fit": (
        {"kind": "evolve", "field": mh.harness.ZERO_FIELD, "grid": {"r_dom": 16.0, "n": 127},
         "evolve": {"frame": "physical", "t_final": 2.0, "dt": 0.1,
                    "oracle": "free-gaussian", "fit_window": [0.5, 1.95]}},
        {"oracle", "contraction"}, {"gamma", "oracle_max_rel_dev"}),
    "evolve-selfsimilar-fit-energy": (
        {"kind": "evolve", "field": mh.harness._field_step(0.5, 2.6),
         "grid": {"r_dom": 7.0, "n": 48},
         "evolve": {"frame": "self-similar", "s_final": 1.0,
                    "fit_window": [0.45, 0.975], "energy_bound": True}},
        {"energy_bound", "contraction"}, {"slope", "energy_bound_margin"}),
    "hardy-halfflux": (
        {"kind": "hardy", "field": mh.harness._field_step(0.5, 1.0),
         "sweep": [4.25, 6.0], "h": 0.5},
        {"uniformly_positive"}, {"sweep"}),
    "hardy-free": (
        {"kind": "hardy", "field": mh.harness.ZERO_FIELD, "sweep": [4.25, 6.0, 8.0], "h": 0.5},
        {"decreasing_to_zero"}, {"sweep"}),
    "lambda-curve-flags": (
        {"kind": "lambda-curve", "field": mh.harness._field_step(0.5, 3.0),
         "grid": {"r_dom": 7.0, "n": 64}, "s_values": [0.0, 1.0, 2.0],
         # lambda(2) = 0.58 is still well short of its limit 0.75
         "tolerances": {"limit_abs": 0.2, "monotone_approach": True, "floor": 1e-3}},
        {"floor", "limit", "monotone_approach"}, {"extrapolated_limit"}),
}


@pytest.mark.parametrize("name", sorted(RUNNER_BRANCHES))
def test_runner_branch(tmp_path, name):
    config, flags, keys = RUNNER_BRANCHES[name]
    cfg = ExperimentConfig.from_dict({"label": name, **config})
    summary = load_summary(run(cfg, out_dir=tmp_path).outputs[0])
    assert set(summary["flags"]) == flags
    assert keys <= set(summary)
    assert summary["pass"], summary["flags"]
