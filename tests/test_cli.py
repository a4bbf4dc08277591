import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from snftm import io, oracle
from snftm.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_simulate_deterministic_across_runs_and_threads(tmp_path):
    out1, out2, out3 = (tmp_path / f"c{i}.csv" for i in (1, 2, 3))
    assert run_cli("simulate", "--dgp", CONFIGS / "demo_dgp.json", "--n", 500, "--out", out1) == 0
    assert run_cli("simulate", "--dgp", CONFIGS / "demo_dgp.json", "--n", 500, "--out", out2) == 0
    assert run_cli(
        "simulate", "--dgp", CONFIGS / "demo_dgp.json", "--n", 500, "--threads", 4, "--out", out3
    ) == 0
    assert out1.read_bytes() == out2.read_bytes() == out3.read_bytes()
    side = Path(str(out1) + ".json")
    assert json.loads(side.read_text())["schema_version"] == 1


def test_gcomp_exact_and_estimated(tmp_path):
    cohort = tmp_path / "c.csv"
    run_cli("simulate", "--dgp", CONFIGS / "demo_dgp.json", "--n", 2000, "--out", cohort)
    exact = tmp_path / "exact.csv"
    est = tmp_path / "est.csv"
    assert run_cli(
        "gcomp", "--laws", CONFIGS / "demo_dgp.json", "--regime", CONFIGS / "regime_never.json",
        "--t-grid", "0.5:2.5:0.5", "--out", exact,
    ) == 0
    assert run_cli(
        "gcomp", "--laws", cohort, "--regime", CONFIGS / "regime_never.json",
        "--t-grid", "0.5:2.5:0.5", "--out", est,
    ) == 0
    rows_exact = np.loadtxt(exact, delimiter=",", skiprows=2)
    rows_est = np.loadtxt(est, delimiter=",", skiprows=2)
    assert rows_exact.shape == rows_est.shape == (5, 3)
    assert np.max(np.abs(rows_exact[:, 1] - rows_est[:, 1])) < 0.06


def test_gtest_stdout_and_estimate_file(tmp_path, capsys):
    cohort = tmp_path / "c.csv"
    run_cli("simulate", "--dgp", CONFIGS / "demo_dgp.json", "--n", 3000, "--out", cohort)
    assert run_cli("gtest", "--cohort", cohort, "--spec", CONFIGS / "treatment_model.json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == 1 and 0.0 <= payload["score_p"] <= 1.0

    est = tmp_path / "est.json"
    assert run_cli(
        "estimate", "--cohort", cohort, "--spec", CONFIGS / "treatment_model.json",
        "--box=-1.5:0.4", "--pitch", "0.05", "--out", est,
    ) == 0
    d = json.loads(est.read_text())
    assert len(d["psi_hat"]) == 3 and len(d["ci_grid"]) == len(d["score_trace"])
    assert "alpha_trace" not in d


def test_verify_suite_exit_zero():
    assert run_cli("verify", "--dgp", CONFIGS / "demo_dgp.json", "--suite", "blip") == 0
    assert run_cli("verify", "--dgp", CONFIGS / "demo_dgp_null.json", "--suite", "null") == 0


def test_simulate_estimate_cfsim_pipeline_reproduces_ordering(tmp_path):
    """End-to-end: a cohort is simulated, the shift parameter estimated from
    it, a fitted world built around that estimate, and the simulated
    counterfactual means must order the regimes the way the exact oracle does."""
    cohort_path = tmp_path / "cohort.csv"
    assert run_cli(
        "simulate", "--dgp", CONFIGS / "demo_dgp.json", "--n", 20000, "--out", cohort_path
    ) == 0
    est_path = tmp_path / "est.json"
    assert run_cli(
        "estimate", "--cohort", cohort_path, "--spec", CONFIGS / "treatment_model.json",
        "--box=-1.5:0.3", "--no-ci", "--out", est_path,
    ) == 0
    psi_hat = json.loads(est_path.read_text())["psi_hat"]

    world_path = tmp_path / "world.json"
    world_path.write_text(json.dumps({
        "cohort": cohort_path.name, "psi": psi_hat, "thresholds": [1.5],
    }))
    means = {}
    for name in ("regime_never", "regime_always"):
        mean_out = tmp_path / f"{name}.mean.json"
        assert run_cli(
            "cfsim", "--world", world_path, "--regime", CONFIGS / f"{name}.json",
            "--n", 20000, "--t-grid", "0.5:3.0:0.5",
            "--out", tmp_path / f"{name}.csv", "--mean-out", mean_out,
        ) == 0
        means[name] = json.loads(mean_out.read_text())["mean_survival_time"]

    from snftm import oracle
    from snftm.core import TreatmentRegime

    world = oracle.enumerate_world(io.load_dgp_config(CONFIGS / "demo_dgp.json"))
    exact_never = world.counterfactual_mean(TreatmentRegime.baseline(2))
    exact_always = world.counterfactual_mean(TreatmentRegime.static((1, 1)))
    assert (means["regime_never"] > means["regime_always"]) == (exact_never > exact_always)


def test_tol_only_on_estimate(tmp_path):
    """No subcommand takes ``--tol``: an estimate's root is checked by its root
    search alone, and passing the option is a usage error."""
    cohort = tmp_path / "c.csv"
    run_cli("simulate", "--dgp", CONFIGS / "demo_dgp.json", "--n", 1000, "--out", cohort)
    spec = CONFIGS / "treatment_model.json"
    assert run_cli("gtest", "--cohort", cohort, "--spec", spec, "--tol", "1e-3") == 2
    common = ("estimate", "--cohort", cohort, "--spec", spec, "--box=-1.5:0.5", "--no-ci")
    assert run_cli(*common, "--tol", "1e-6", "--out", tmp_path / "t.json") == 2
    assert not (tmp_path / "t.json").exists()
    assert run_cli(*common, "--out", tmp_path / "e.json") == 0


def _loaded_under(package, code, cwd=None) -> list[str]:
    """The modules of ``package`` loaded after ``code`` runs in a fresh interpreter."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys; print(*sys.modules)"],
        capture_output=True, text=True, env=env, cwd=cwd,
    )
    assert proc.returncode == 0, proc.stderr
    modules = proc.stdout.splitlines()[-1].split()
    return [m for m in modules if m == package or m.startswith(package + ".")]


def test_import_leaves_scipy_stats_unloaded():
    for module in ("snftm.cli", "snftm.io", "snftm.gest"):
        assert _loaded_under("scipy", f"import {module}") == [], module


def test_two_component_estimate_loads_no_scipy():
    tests = str(Path(__file__).resolve().parent)
    code = (
        f"import sys; sys.path.insert(0, {tests!r})\n"
        "from conftest import make_config\n"
        "from snftm import dgp, gest\n"
        "cohort = dgp.sample_cohort(make_config(psi0=(0.6, 0.0, -0.5)), 30_000, seed=41)\n"
        "spec = gest.TreatmentModelSpec(g=gest.GFeature(knots=(1.2,)), components=(0, 2))\n"
        "est = gest.estimate_psi(cohort, spec, [(-0.2, 1.2), (-1.2, 0.4)], compute_ci=False)\n"
        "assert len(est.roots) == 1 and est.se.shape == (2,)"
    )
    assert _loaded_under("scipy", code) == []


COHORT = "<cohort>"


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        (("simulate", "--dgp", CONFIGS / "demo_dgp.json", "--n", 200, "--out", "c.csv"), "scipy"),
        (("gcomp", "--laws", CONFIGS / "demo_dgp.json", "--regime", CONFIGS / "regime_never.json",
          "--t-grid", "0.5:2.5:0.5", "--out", "g.csv"), "scipy"),
        (("gcomp", "--laws", CONFIGS / "demo_dgp.json", "--regime", CONFIGS / "regime_never.json",
          "--t-grid", "0.5:2.5:0.5", "--mc", 100, "--out", "g.csv"), "scipy"),
        (("gcomp", "--laws", COHORT, "--regime", CONFIGS / "regime_never.json",
          "--t-grid", "0.5:2.5:0.5", "--out", "g.csv"), "scipy"),
        (("cfsim", "--world", CONFIGS / "world_exact.json", "--regime", CONFIGS / "regime_never.json",
          "--n", 200, "--out", "cf.csv"), "scipy"),
        (("verify", "--dgp", CONFIGS / "demo_dgp_null.json", "--suite", "null", "--out", "v.json"), "scipy"),
        (("gtest", "--cohort", COHORT, "--spec", CONFIGS / "treatment_model.json", "--out", "t.json"),
         "scipy"),
        (("estimate", "--cohort", COHORT, "--spec", CONFIGS / "treatment_model.json", "--box=-1.5:0.5",
          "--out", "e.json"), "scipy"),
    ],
)
def test_each_command_loads_only_what_it_runs(tmp_path, small_cohort, argv, unloaded):
    argv = [str(small_cohort if a == COHORT else a) for a in argv]
    code = f"from snftm.cli import main; assert main({argv!r}) == 0"
    assert _loaded_under(unloaded, code, cwd=tmp_path) == []


def test_domain_error_exit_code(tmp_path):
    missing = tmp_path / "nope.json"
    assert run_cli("verify", "--dgp", missing) == 1


@pytest.mark.parametrize("command", [("verify", "--dgp"), ("gtest", "--cohort", "c.csv", "--spec")])
def test_non_utf8_json_is_one_error_line(tmp_path, capsys, monkeypatch, command):
    """A config whose bytes are not UTF-8 is a domain error naming the file."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.csv").write_text("id,k,tau_k,L1,A,T_event\n0,0,0.0,0,0,\n0,1,,,,0.5\n")
    (tmp_path / "c.csv.json").write_text('{"taus": [0.0, 1.0]}')
    (tmp_path / "bad.json").write_bytes(b'{"psi0": "\xff"}')
    assert run_cli(*command, "bad.json") == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("snftm: error:")]
    assert errors == ["snftm: error: bad.json: not UTF-8 text at byte 10 (invalid start byte)"]


@pytest.mark.parametrize(
    "argv, path",
    [
        (("verify", "--dgp", CONFIGS), str(CONFIGS)),
        (("gtest", "--cohort", "dir.csv", "--spec", CONFIGS / "treatment_model.json"), "dir.csv"),
        (("gtest", "--cohort", "gone.csv", "--spec", CONFIGS / "treatment_model.json"), "gone.csv"),
        (("gtest", "--cohort", "c.csv", "--spec", CONFIGS / "treatment_model.json", "--out", "out"), "out"),
        (("simulate", "--dgp", CONFIGS / "demo_dgp.json", "--n", 10, "--out", "out"), "out"),
    ],
)
def test_file_system_errors_are_one_error_line(tmp_path, capsys, monkeypatch, small_cohort, argv, path):
    """A directory, or a cohort CSV missing beside its sidecar, is a domain error naming the path."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.csv").write_bytes(small_cohort.read_bytes())
    for name in ("c", "dir", "gone"):
        (tmp_path / f"{name}.csv.json").write_bytes(Path(f"{small_cohort}.json").read_bytes())
    (tmp_path / "dir.csv").mkdir()
    (tmp_path / "out").mkdir()
    capsys.readouterr()
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    config, error = err.splitlines()
    assert json.loads(config)["command"] == argv[0]
    assert error.startswith("snftm: error: ") and error.endswith(path) and "Traceback" not in err, err
    assert [p.name for p in (tmp_path / "out").iterdir()] == []


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "snftm.cli", "frobnicate"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2


def test_log_line_on_stderr(tmp_path, capsys):
    run_cli("verify", "--dgp", CONFIGS / "demo_dgp_null.json", "--suite", "null", "--out", tmp_path / "r.json")
    err = capsys.readouterr().err
    logged = json.loads(err.splitlines()[0])
    assert logged["command"] == "verify" and logged["suite"] == "null"


@pytest.mark.parametrize(
    "world, regime, field",
    [
        ({"dgp": "demo_dgp.json"}, {"kind": "static", "doses": [1]}, "'doses'"),
        ({"dgp": "demo_dgp.json"}, {"kind": "threshold"}, "'level'"),
        ({"cohort": "c.csv"}, {"kind": "never"}, "'psi'"),
        ({"dgp": "demo_dgp.json", "psi": 0.5}, {"kind": "never"}, "'psi'"),
        ({"dgp": "demo_dgp.json", "thresholds": [1.5]}, {"kind": "never"}, "'thresholds'"),
        ({"cohort": 3, "psi": [0.0, 0.0, 0.0]}, {"kind": "never"}, "'cohort'"),
        ({"cohort": "c.csv", "psi": [0.5, 0.0, 0.0], "thresholds": [2.0, 1.0]}, {"kind": "never"}, "'thresholds'"),
        ({"dgp": "bad_dgp.json"}, {"kind": "never"}, "'psi'"),
    ],
)
def test_cfsim_input_errors_name_the_field(tmp_path, capsys, world, regime, field):
    demo = json.loads((CONFIGS / "demo_dgp.json").read_text())
    (tmp_path / "demo_dgp.json").write_text(json.dumps(demo))
    (tmp_path / "bad_dgp.json").write_text(json.dumps({**demo, "psi": demo["psi0"]}))
    (tmp_path / "w.json").write_text(json.dumps(world))
    (tmp_path / "r.json").write_text(json.dumps(regime))
    assert run_cli(
        "cfsim", "--world", tmp_path / "w.json", "--regime", tmp_path / "r.json",
        "--n", 10, "--out", tmp_path / "cf.csv",
    ) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("snftm: error:")]
    assert len(errors) == 1 and field in errors[0], errors
    assert not (tmp_path / "cf.csv").exists()


def _one_error_line(capsys, field):
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("snftm: error:")]
    assert len(errors) == 1 and field in errors[0] and "Traceback" not in err, err


@pytest.mark.parametrize("grid", ["nan:1:0.1", "0:inf:0.1", "0:1e300:1e-300"])
def test_gcomp_bad_t_grid_is_one_error_line(tmp_path, capsys, grid):
    out = tmp_path / "g.csv"
    assert run_cli(
        "gcomp", "--laws", CONFIGS / "demo_dgp.json", "--regime", CONFIGS / "regime_never.json",
        "--t-grid", grid, "--out", out,
    ) == 1
    _one_error_line(capsys, repr(grid))
    assert not out.exists()


@pytest.mark.parametrize("command", [("simulate", "--n", 10, "--out", "c.csv"), ("verify", "--suite", "blip")])
def test_world_config_errors_name_the_field(tmp_path, capsys, command):
    demo = json.loads((CONFIGS / "demo_dgp.json").read_text())
    (tmp_path / "w.json").write_text(json.dumps({**demo, "psi0": [0.5]}))
    sub, *rest = command
    assert run_cli(sub, "--dgp", tmp_path / "w.json", *(tmp_path / a if a == "c.csv" else a for a in rest)) == 1
    _one_error_line(capsys, "'psi0'")
    assert not (tmp_path / "c.csv").exists()


def test_world_config_seed_error_names_the_field(tmp_path, capsys):
    demo = json.loads((CONFIGS / "demo_dgp.json").read_text())
    (tmp_path / "w.json").write_text(json.dumps({**demo, "seed": "x"}))
    assert run_cli("simulate", "--dgp", tmp_path / "w.json", "--n", 10, "--out", tmp_path / "c.csv") == 1
    _one_error_line(capsys, "'seed'")
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("estimate", "--box", "abc"),
        ("estimate", "--box", "0.5:-1.5"),
        ("estimate", "--box=-1.5:0.5", "--pitch", "0"),
        ("gtest", "--psi0", "x,1"),
        ("gtest", "--psi0", "0.5,1"),
        ("gtest", "--psi0", "nan,0,0"),
    ],
)
def test_malformed_numeric_arguments_are_usage_errors(tmp_path, capsys, argv):
    sub, *rest = argv
    cohort, spec, out = tmp_path / "c.csv", tmp_path / "s.json", tmp_path / "o.json"
    assert run_cli(sub, "--cohort", cohort, "--spec", spec, *rest, "--out", out) == 2
    err = capsys.readouterr().err
    assert "error: argument" in err and "Traceback" not in err, err


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--dgp", CONFIGS / "demo_dgp.json", "--n", 10),
        ("gcomp", "--laws", CONFIGS / "demo_dgp.json", "--regime", CONFIGS / "regime_never.json",
         "--t-grid", "0.5:1.0:0.5", "--mc", 100),
        ("cfsim", "--world", CONFIGS / "world_exact.json", "--regime", CONFIGS / "regime_never.json",
         "--n", 10),
    ],
)
def test_negative_seed_is_a_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "o.csv"
    assert run_cli(*argv, "--seed", "-1", "--out", out) == 2
    err = capsys.readouterr().err
    assert "error: argument --seed" in err and "Traceback" not in err, err
    assert not out.exists()


@pytest.fixture(scope="module")
def small_cohort(tmp_path_factory):
    path = tmp_path_factory.mktemp("cohort") / "c.csv"
    assert run_cli("simulate", "--dgp", CONFIGS / "demo_dgp.json", "--n", 300, "--out", path) == 0
    return path


@pytest.mark.parametrize(
    "command, content, field",
    [
        ("mle", {}, "'baseline_bounds'"),
        ("mle", {"baseline_bounds": [0.0, "x"]}, "'baseline_bounds'"),
        ("gtest", {"f_terms": 5}, "'f_terms'"),
        ("gtest", {"psi_dim": "x"}, "'psi_dim'"),
        ("gtest", {"g": {"clip": "ab"}}, "'clip'"),
        ("gtest", {"components": [0.5]}, "'components'"),
        ("estimate", {"components": [0.5]}, "'components'"),
        ("mle", {"baseline_bounds": []}, "'baseline_bounds'"),
        ("mle", {"baseline_bounds": [0.0, 2.0, 1.0]}, "'baseline_bounds'"),
        ("mle", {"baseline_bounds": [0.5, 1.0, 2.0]}, "'baseline_bounds'"),
        ("mle", {"baseline_bounds": [0.0, 1.0], "bins": [2.0, 1.0]}, "'bins'"),
        ("gtest", {"f_terms": []}, "'f_terms'"),
        ("estimate", {"f_terms": []}, "'f_terms'"),
        ("estimate", {"psi_dim": 2}, "'psi_dim'"),
        ("gtest", {"g": {"clip": [0.0, 0.0], "log": True}}, "'clip'"),
        ("gtest", {"g": {"powers": 0}}, "'powers'"),
    ],
)
def test_spec_and_template_errors_name_the_field(tmp_path, capsys, small_cohort, command, content, field):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(content))
    out = tmp_path / "out.json"
    extra = {"mle": ("--model", path), "gtest": ("--spec", path),
             "estimate": ("--spec", path, "--box=-1.5:0.5", "--no-ci")}[command]
    capsys.readouterr()
    assert run_cli(command, "--cohort", small_cohort, *extra, "--out", out) == 1
    _one_error_line(capsys, field)
    assert not out.exists()


def test_collinear_augmentation_is_one_error_line(tmp_path, capsys, small_cohort):
    # a clip to [0, 1e-300] makes the augmentation column collinear with the intercept
    spec = tmp_path / "s.json"
    spec.write_text(json.dumps({"g": {"clip": [0.0, 1e-300]}}))
    out = tmp_path / "o.json"
    capsys.readouterr()
    assert run_cli("gtest", "--cohort", small_cohort, "--spec", spec, "--psi0=0.3,0,0", "--out", out) == 1
    _one_error_line(capsys, "rank deficient")
    assert not out.exists()


@pytest.mark.parametrize("pitch", ["1e-9", "1e-300"])
def test_huge_ci_grid_is_one_error_line(tmp_path, capsys, small_cohort, pitch):
    out = tmp_path / "est.json"
    capsys.readouterr()
    assert run_cli(
        "estimate", "--cohort", small_cohort, "--spec", CONFIGS / "treatment_model.json",
        "--box=-1.5:0.5", "--pitch", pitch, "--out", out,
    ) == 1
    _one_error_line(capsys, f"pitch {float(pitch):g}")
    assert not out.exists()


_COMMANDS = {
    "simulate": ("--dgp", CONFIGS / "demo_dgp.json", "--n", 50),
    "gcomp": ("--laws", CONFIGS / "demo_dgp.json", "--regime", CONFIGS / "regime_never.json",
              "--t-grid", "0.5:1.0:0.5", "--mc", 50),
    "cfsim": ("--world", CONFIGS / "world_exact.json", "--regime", CONFIGS / "regime_never.json", "--n", 50),
    "verify": ("--dgp", CONFIGS / "demo_dgp_null.json", "--suite", "null"),
    "gtest": ("--cohort", COHORT, "--spec", CONFIGS / "treatment_model.json"),
    "estimate": ("--cohort", COHORT, "--spec", CONFIGS / "treatment_model.json", "--box=-1.5:0.5", "--no-ci"),
    "mle": ("--cohort", COHORT, "--model", CONFIGS / "mle_model.json"),
}


def _argv(command, tmp_path, small_cohort):
    inputs = (small_cohort if a == COHORT else a for a in _COMMANDS[command])
    return (command, *inputs, "--out", tmp_path / command)


@pytest.mark.parametrize(
    "command, reads",
    [("simulate", {"seed", "threads"}), ("gcomp", {"seed", "threads"}), ("cfsim", {"seed", "threads"}),
     ("verify", {"threads"}), ("gtest", set()), ("estimate", set()), ("mle", set())],
)
def test_each_command_takes_only_what_it_reads(tmp_path, capsys, small_cohort, command, reads):
    argv = _argv(command, tmp_path, small_cohort)
    for flag, value in (("seed", 1), ("threads", 2)):
        capsys.readouterr()
        code = run_cli(*argv, f"--{flag}", value)
        if flag in reads:
            assert code == 0
        else:
            assert code == 2 and f"unrecognized arguments: --{flag}" in capsys.readouterr().err
    capsys.readouterr()
    assert run_cli(*argv) == 0
    logged = json.loads(capsys.readouterr().err.splitlines()[0])
    assert logged["command"] == command and {"seed", "threads"} & set(logged) == reads


def test_exact_gcomp_logs_no_seed(tmp_path, capsys):
    exact = _COMMANDS["gcomp"][:-2]  # without "--mc", 50
    assert run_cli("gcomp", *exact, "--out", tmp_path / "g.csv") == 0
    logged = json.loads(capsys.readouterr().err.splitlines()[0])
    assert logged["command"] == "gcomp" and logged["mc"] == 0 and "seed" not in logged


def test_exact_gcomp_enumerates_at_most_ten_million_cells(tmp_path, monkeypatch):
    caps = []
    original = oracle.EnumeratedWorld.__init__

    def recording(self, *args, **kwargs):
        original(self, *args, **kwargs)
        caps.append(self.max_cells)

    monkeypatch.setattr(oracle.EnumeratedWorld, "__init__", recording)
    exact = _COMMANDS["gcomp"][:-2]  # without "--mc", 50
    assert run_cli("gcomp", *exact, "--out", tmp_path / "g.csv") == 0
    assert caps == [10_000_000]


@pytest.mark.parametrize("command", ["simulate", "gcomp", "cfsim", "verify"])
def test_threads_is_a_positive_integer(tmp_path, capsys, small_cohort, command):
    argv = _argv(command, tmp_path, small_cohort)
    for value in ("0", "-7", "x"):
        capsys.readouterr()
        assert run_cli(*argv, "--threads", value) == 2
        err = capsys.readouterr().err
        assert "error: argument --threads" in err and "Traceback" not in err, err
    assert not any(tmp_path.iterdir())
