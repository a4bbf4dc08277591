"""Kernel probes for the traced run: each public layer call timed on its own.

The probes run once per traced run, after the workload, in three groups
named after the workload whose inputs they use; every traced run makes all
three, so every traced run reports every per-layer metric.  Each group runs
inside one ``probe`` span named after it, so the spans of a workload's own
group count toward that workload's module totals and the other groups do not.

- ``study``: one 20k replicate of the effect world, 1k null cohorts, and
  one likelihood-ratio replicate on the smooth null, seeds from the run seed.
- ``cli``: the 20k demo cohort at the CLI's default seed.  Each command
  runs once as a subprocess and once in process (the replay: the same public
  layer calls on the same files), plus the kernels underneath on their own.
- ``exact``: the demo world, enumerated exactly.

Times are at the reference speed (see ``pace.py``), like every time the
benchmark reports.
The same calls also run nested inside the workloads; here each is isolated,
so a change to one layer shows in its own number.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from pace import clock
from spans import median
from workloads import (
    CHECK_TIMES,
    CLI_N,
    GEST_N,
    GEST_PSI,
    LR_N,
    CheckFailed,
    Context,
    _OpFailed,
    _within_se,
    check_converged,
    check_estimate,
    check_reports,
    cli_checks,
    cli_commands,
    cli_env,
    derive_seed,
    run_cli,
    study_worlds,
)

SMALL_N, SMALL_SAMPLES = 1_000, 5
MC_PATHS, CF_DRAWS = 2_000, 20_000
QUANTILE_CALLS, T0_CALLS = 2_000, 50
ESTIMATE_BOX = [(-1.5, 0.5)]

# name -> (unit, better); the per-layer metrics of BENCHMARK.json besides
# the module totals.
PROBES = {
    "study.dgp.us_per_subject_20k": ("us", "lower"),
    "study.dgp.us_per_subject_1k": ("us", "lower"),
    "study.gest.estimate_s": ("s", "lower"),
    "study.gest.records": ("count", "lower"),
    "study.gest.g_test_s": ("s", "lower"),
    "study.mle.evals": ("count", "lower"),
    "study.mle.ms_per_eval": ("ms", "lower"),
    "study.mle.test_null_s": ("s", "lower"),
    "cli.cli.import_s": ("s", "lower"),
    "cli.cli.overhead_s": ("s", "lower"),
    "cli.io.write_s": ("s", "lower"),
    "cli.io.read_s": ("s", "lower"),
    "cli.io.bytes": ("bytes", "lower"),
    "cli.dgp.threads_speedup": ("ratio", "higher"),
    "cli.gest.ci_points": ("count", "lower"),
    "cli.gest.ms_per_ci_point": ("ms", "lower"),
    "cli.mle.evals": ("count", "lower"),
    "cli.mle.ms_per_eval": ("ms", "lower"),
    "cli.gcomp.cells": ("count", "lower"),
    "cli.gcomp.estimate_laws_s": ("s", "lower"),
    "cli.core.cohort_build_s": ("s", "lower"),
    "cli.shift.blip_build_s": ("s", "lower"),
    "cli.shift.t0_us": ("us", "lower"),
    "cli.gest.fit_s": ("s", "lower"),
    "cli.mle.profile_at_s": ("s", "lower"),
    "exact.oracle.atoms": ("count", "lower"),
    "exact.oracle.reports": ("count", "higher"),
    "exact.oracle.suite_gcomp_s": ("s", "lower"),
    "exact.oracle.suite_blip_s": ("s", "lower"),
    "exact.oracle.suite_null_s": ("s", "lower"),
    "exact.core.curve_quantile_us": ("us", "lower"),
    "exact.gcomp.us_per_path": ("us", "lower"),
    "exact.cfsim.us_per_draw": ("us", "lower"),
}


def run_probes(ctx: Context, root: Path, seed: int) -> tuple[dict[str, float], dict]:
    """Every probe metric, plus a side record of per-command CLI costs.  A
    failed operation ends its group, which then lacks the metrics it had not
    reached; the other groups still run."""
    m: dict[str, float] = {}
    side: dict = {}
    for group, probe in (("study", _study), ("cli", _cli), ("exact", _exact)):
        ctx.tracer.enabled = True
        try:
            with ctx.tracer.span("probe", group):
                probe(ctx, root, seed, m, side)
        except _OpFailed:
            pass
    return m, side


def _study(ctx: Context, root: Path, seed: int, m: dict, side: dict) -> None:
    from snftm import dgp, gest, mle
    from snftm.shift import ShiftParams

    op, timed = ctx.op, ctx.timed
    worlds = study_worlds(root)
    spec = gest.TreatmentModelSpec()

    s = derive_seed(seed, 10)
    cohort, t = timed(lambda: op("dgp", "sample_cohort", lambda: dgp.sample_cohort(worlds["gest"], GEST_N, seed=s)))
    m["study.dgp.us_per_subject_20k"] = 1e6 * t / GEST_N
    small = []
    for i in range(SMALL_SAMPLES):
        s_i = derive_seed(seed, 11, i)
        small.append(timed(lambda: op("dgp", "sample_cohort", lambda: dgp.sample_cohort(worlds["null"], SMALL_N, seed=s_i)))[1])
    m["study.dgp.us_per_subject_1k"] = 1e6 * median(small) / SMALL_N

    _, m["study.gest.estimate_s"] = timed(lambda: op("gest", "estimate_psi", lambda: gest.estimate_psi(
        cohort, spec, [(-0.1, 1.5)], compute_ci=False), check_estimate))
    report, m["study.gest.g_test_s"] = timed(lambda: op("gest", "g_test", lambda: gest.g_test(
        cohort, spec, ShiftParams((GEST_PSI, 0.0, 0.0)))))
    m["study.gest.records"] = report.n_records

    lr_cohort = op("dgp", "sample_cohort", lambda: dgp.sample_cohort(worlds["smooth"], LR_N, seed=derive_seed(seed, 13)))
    template = mle.ParametricModel.template(worlds["smooth"].grid, (0.0,), ())
    fit, t = timed(lambda: op("mle", "fit", lambda: mle.fit(lr_cohort, template), check_converged))
    m["study.mle.evals"] = fit.n_evals
    m["study.mle.ms_per_eval"] = 1e3 * t / fit.n_evals
    _, m["study.mle.test_null_s"] = timed(lambda: op("mle", "test_null", lambda: mle.test_null(lr_cohort, fit)))


def _import_cli(env) -> None:
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "import snftm.cli"], env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    except subprocess.TimeoutExpired as e:
        raise CheckFailed("import snftm.cli ran over 120 s") from e
    if proc.returncode != 0:
        raise CheckFailed(f"import snftm.cli exited {proc.returncode}")


def _cli(ctx: Context, root: Path, seed: int, m: dict, side: dict) -> None:
    from snftm import core, dgp, gcomp, gest, io, mle, rng, shift

    op, timed = ctx.op, ctx.timed
    configs = root / "configs"
    env = cli_env(root)
    work = Path(tempfile.mkdtemp(prefix="probe-", dir=root / "perfbench" / "out"))
    try:
        commands = cli_commands(configs, work)
        checks = cli_checks(work)
        csv = work / "cohort.csv"
        _, m["cli.cli.import_s"] = timed(lambda: op("cli", "import", lambda: _import_cli(env)))

        # The replay of each command: the public calls its handler makes.
        def simulate():
            cfg = op("io", "load_dgp_config", lambda: io.load_dgp_config(configs / "demo_dgp.json"))
            cohort = op("dgp", "sample_cohort", lambda: dgp.sample_cohort(cfg, CLI_N, seed=rng.DEFAULT_SEED))
            _, m["cli.io.write_s"] = timed(lambda: op("io", "write_cohort", lambda: io.write_cohort(
                csv, cohort, covariate_levels=cfg.covariate_law.levels,
                treatment_levels=cfg.treatment_law.levels)))
            m["cli.io.bytes"] = sum(p.stat().st_size for p in work.iterdir() if p.name.startswith("cohort."))

        reads = []

        def read():
            (cohort, _), t = timed(lambda: op("io", "read_cohort", lambda: io.read_cohort(csv)))
            reads.append(t)
            return cohort

        def gtest():
            cohort = read()
            spec = op("io", "load_treatment_spec", lambda: io.load_treatment_spec(configs / "treatment_model.json"))
            op("gest", "g_test", lambda: gest.g_test(cohort, spec))

        def estimate():
            cohort = read()
            spec = op("io", "load_treatment_spec", lambda: io.load_treatment_spec(configs / "treatment_model.json"))
            est, t = timed(lambda: op("gest", "estimate_psi", lambda: gest.estimate_psi(cohort, spec, ESTIMATE_BOX)))
            side["estimate_with_ci_s"] = t
            m["cli.gest.ci_points"] = len(est.ci_grid)

        def fit_mle():
            cohort = read()
            template = op("io", "load_mle_template", lambda: io.load_mle_template(configs / "mle_model.json", cohort.grid))
            fit, t = timed(lambda: op("mle", "fit", lambda: mle.fit(cohort, template), check_converged))
            m["cli.mle.evals"] = fit.n_evals
            m["cli.mle.ms_per_eval"] = 1e3 * t / fit.n_evals
            op("mle", "test_null", lambda: mle.test_null(cohort, fit))

        def gcomp_curve():
            cohort = read()
            laws, m["cli.gcomp.estimate_laws_s"] = timed(lambda: op("gcomp", "estimate_laws", lambda: gcomp.estimate_laws(cohort)))
            m["cli.gcomp.cells"] = len(laws.covariate_transition) + len(laws.interval_survival)
            regime = op("io", "load_regime", lambda: io.load_regime(configs / "regime_treat_if_sick.json", cohort.grid.K + 1))
            t_grid = io.parse_t_grid("0.2:3.0:0.2")
            op("gcomp", "s_marginal", lambda: [gcomp.s_marginal(laws, regime, float(t)) for t in t_grid])

        replays = {"simulate": simulate, "gtest": gtest, "estimate": estimate, "mle": fit_mle, "gcomp": gcomp_curve}
        overhead = {}
        for name, args in commands.items():
            _, wall = timed(lambda: op("cli", name, lambda: run_cli(env, args), lambda _: checks[name]()))
            _, replay = timed(replays[name])
            overhead[name] = wall - m["cli.cli.import_s"] - replay
        side["overhead_s"] = overhead
        m["cli.cli.overhead_s"] = sum(overhead.values()) / len(overhead)
        m["cli.io.read_s"] = median(reads)

        # simulate on one thread and on two, over every CPU (raw wall times:
        # the reference speed is that of one CPU)
        walls = {}
        with ctx.pace.unpinned():
            for n_threads in (1, 2):
                args = [*commands["simulate"][:-1], str(work / "threads.csv"), "--threads", str(n_threads)]
                start = clock()
                op("cli", "simulate", lambda: run_cli(env, args))
                walls[n_threads] = clock() - start
        side["threads_walls_s"] = walls
        m["cli.dgp.threads_speedup"] = walls[1] / walls[2]

        # the kernels underneath, each on its own
        cohort = read()
        spec = io.load_treatment_spec(configs / "treatment_model.json")
        _, m["cli.core.cohort_build_s"] = timed(lambda: op("core", "Cohort", lambda: core.Cohort(cohort.subjects, cohort.grid)))
        table, m["cli.shift.blip_build_s"] = timed(lambda: op("shift", "BlipTable.from_cohort", lambda: shift.BlipTable.from_cohort(cohort)))
        psi = np.array([-0.5, 0.0, 0.0])
        _, t = timed(lambda: op("shift", "BlipTable.t0", lambda: [table.t0(psi) for _ in range(T0_CALLS)]))
        m["cli.shift.t0_us"] = 1e6 * t / T0_CALLS
        _, m["cli.gest.fit_s"] = timed(lambda: op("gest", "fit_treatment_model", lambda: gest.fit_treatment_model(cohort, spec, None)))
        _, t = timed(lambda: op("gest", "estimate_psi", lambda: gest.estimate_psi(cohort, spec, ESTIMATE_BOX, compute_ci=False)))
        m["cli.gest.ms_per_ci_point"] = 1e3 * (side["estimate_with_ci_s"] - t) / m["cli.gest.ci_points"]
        template = io.load_mle_template(configs / "mle_model.json", cohort.grid)
        _, m["cli.mle.profile_at_s"] = timed(lambda: op("mle", "profile_at", lambda: mle.profile_at(cohort, template, np.zeros(3))))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _exact(ctx: Context, root: Path, seed: int, m: dict, side: dict) -> None:
    from snftm import cfsim, gcomp, io, oracle
    from snftm.core import TreatmentRegime

    op, timed = ctx.op, ctx.timed
    configs = root / "configs"
    cfg = io.load_dgp_config(configs / "demo_dgp.json")

    world = op("oracle", "enumerate_world", lambda: oracle.enumerate_world(cfg))
    m["exact.oracle.atoms"] = sum(len(stage) for stage in world.stages)
    reports = 0
    for name in ("gcomp", "blip", "null"):
        w = op("oracle", "enumerate_world", lambda: oracle.enumerate_world(cfg))
        out, m[f"exact.oracle.suite_{name}_s"] = timed(lambda: op(
            "oracle", f"run_suite.{name}", lambda: oracle.run_suite(w, name), check_reports))
        reports += len(out)
    m["exact.oracle.reports"] = reports

    levels = np.random.default_rng(derive_seed(seed, 12)).uniform(1e-6, 1.0, QUANTILE_CALLS).tolist()
    _, t = timed(lambda: op("core", "SurvivalCurve.quantile", lambda: [cfg.baseline.quantile(u) for u in levels]))
    m["exact.core.curve_quantile_us"] = 1e6 * t / QUANTILE_CALLS

    sick = io.load_regime(configs / "regime_treat_if_sick.json", cfg.grid.K + 1)
    exact_sick = [world.counterfactual_survival(sick, t) for t in CHECK_TIMES]
    laws = world.conditional_laws()
    _, t = timed(lambda: op("gcomp", "mc_gcomp", lambda: gcomp.mc_gcomp(
        laws, sick, CHECK_TIMES, MC_PATHS, seed=derive_seed(seed, 14)),
        lambda res: _within_se("mc_gcomp", res.survival, exact_sick, MC_PATHS)))
    m["exact.gcomp.us_per_path"] = 1e6 * t / MC_PATHS

    fitted = cfsim.FittedWorld.from_dgp_config(cfg)
    never = TreatmentRegime.baseline(cfg.grid.K + 1)
    exact_never = [world.counterfactual_survival(never, t) for t in CHECK_TIMES]
    _, t = timed(lambda: op("cfsim", "simulate_counterfactual", lambda: cfsim.simulate_counterfactual(
        fitted, never, CF_DRAWS, seed=derive_seed(seed, 15), t_grid=CHECK_TIMES),
        lambda res: _within_se("cfsim", res.survival, exact_never, CF_DRAWS)))
    m["exact.cfsim.us_per_draw"] = 1e6 * t / CF_DRAWS
