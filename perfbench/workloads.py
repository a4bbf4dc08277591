"""The three benchmark workloads and the closed-loop scheduler that runs them.

Every workload times five steps, reported as ``step1_s`` .. ``step5_s``.
``STEPS`` names what each step is in each workload.  A step sample is the
wall time of one block of calls into the package; inside it, each call is one
operation that counts as attempted and, if it raises ``SnftmError`` or fails
its output check, as failed.  A failed block gives no step sample.  Each
sample is also put at the reference speed of the CPU (see ``pace.py``).
"""

from __future__ import annotations

import gc
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from pace import clock
from spans import Tracer, median

GEST_N, GNULL_N, LR_N, CLI_N = 20_000, 2_000, 1_000, 20_000
MC_PATHS, CF_DRAWS = 5_000, 50_000
# The null suite takes ~10 ms; a sample times this many, so that the few
# readings of the core speed around it are not dominated by the sidecar's own
# interruptions.
NULL_REPEATS = 8
GEST_PSI = 0.7
# Survival is checked at these times: inside the first and the last interval.
CHECK_TIMES = (0.5, 1.5)
MAX_SE = 4.0

# What step1..step5 measure, per workload.
STEPS = {
    "study": (
        f"gest.sample: dgp.sample_cohort, {GEST_N} subjects, psi=({GEST_PSI},0,0)",
        "gest.estimate: gest.estimate_psi on box (-0.1,1.5), no CI",
        "gest.g_test: gest.g_test at the truth",
        f"gnull.rep: {GNULL_N} subjects at the null + gest.g_test at the identity",
        f"lr.rep: {LR_N} smooth-null subjects + mle.fit + mle.test_null",
    ),
    "cli": (
        f"simulate: snftm simulate, {CLI_N} subjects",
        "gtest: snftm gtest",
        "estimate: snftm estimate --box=-1.5:0.5 with CI (201 points)",
        "mle: snftm mle with configs/mle_model.json",
        "gcomp: snftm gcomp --laws cohort.csv under treat-if-sick",
    ),
    "exact": (
        "verify.gcomp: enumerate_world + run_suite 'gcomp'",
        "verify.blip: enumerate_world + run_suite 'blip'",
        f"verify.null: enumerate_world + run_suite 'null', per repeat of {NULL_REPEATS}",
        f"mc_gcomp: {MC_PATHS} paths on the exact laws under treat-if-sick",
        f"cfsim: {CF_DRAWS} draws from FittedWorld.from_dgp_config under never-treat",
    ),
}


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


class _OpFailed(Exception):
    pass


def derive_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


class Context:
    """Step samples, operation counts and spans of one run.  A sample is
    ``(step, start, seconds, seconds at the reference speed, traced)``, with
    ``start`` on ``pace.clock``."""

    def __init__(self, tracer: Tracer, pace):
        self.tracer = tracer
        self.pace = pace
        self.timeline: list[tuple[str, float, float, float, bool]] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    @contextmanager
    def step(self, step: str, repeats: int = 1):
        """Time a block of operations, ``repeats`` times the step's work; the
        sample, the time per repeat, is kept only if all succeed."""
        with self.tracer.span("bench", step):
            start = clock()
            yield
            end = clock()
            self.timeline.append((step, start, (end - start) / repeats,
                                  self.pace.rescale(start, end) / repeats, self.tracer.enabled))

    def samples(self, traced=None) -> dict[str, list[float]]:
        """Step -> samples at the reference speed, optionally only the
        traced (or untraced) ones."""
        out: dict[str, list[float]] = {}
        for step, _, _, ref, was_traced in self.timeline:
            if traced is None or was_traced == traced:
                out.setdefault(step, []).append(ref)
        return out

    def timed(self, fn):
        """``(fn(), seconds at the reference speed)``."""
        start = clock()
        result = fn()
        return result, self.pace.rescale(start, clock())

    def op(self, module: str, name: str, fn, check=None):
        """Run one operation into ``module``; raise ``_OpFailed`` on failure."""
        from snftm.core import SnftmError

        self.attempted += 1
        try:
            with self.tracer.span(module, name):
                result = fn()
                if check is not None:
                    check(result)
        except (SnftmError, CheckFailed) as e:
            self.failed += 1
            self.errors.append(f"{module}.{name}: {type(e).__name__}: {e}")
            raise _OpFailed from e
        return result


class Task:
    """One kind of block the scheduler repeats; ``weight`` is its share of
    the measured time relative to the other tasks."""

    def __init__(self, name: str, weight: float, body):
        self.name = name
        self.weight = weight
        self.body = body
        self.walls: list[float] = []

    def run(self, ctx: Context) -> None:
        # Each block starts with no garbage left by the one before, so the
        # collections inside it come at the same points on every run.
        gc.collect()
        start = clock()
        try:
            self.body(ctx, len(self.walls))
        except _OpFailed:
            pass
        self.walls.append(clock() - start)


def run_closed_loop(ctx: Context, tasks, seconds: float, alternate_trace: bool = False) -> float:
    """One block of every task in order, then keep starting the task with the
    least time per weight among those expected to finish before ``seconds``
    have passed.  One caller, each block waits for the last (closed loop).
    With ``alternate_trace`` every other block of each task runs with spans
    on, so the traced and untraced blocks of one run can be compared.
    Returns the measured wall time."""
    start = clock()
    deadline = start + seconds

    def run(task):
        if alternate_trace:
            ctx.tracer.enabled = len(task.walls) % 2 == 1
        task.run(ctx)

    for task in tasks:
        run(task)
    while True:
        left = deadline - clock()
        fits = [t for t in tasks if median(t.walls) <= left]
        if not fits:
            break
        run(min(fits, key=lambda t: sum(t.walls) / t.weight))
    return clock() - start


def _within_se(what: str, got, want, n: int):
    for t, g, w in zip(CHECK_TIMES, got, want):
        se = math.sqrt(w * (1.0 - w) / n)
        if abs(g - w) > MAX_SE * se:
            raise CheckFailed(f"{what} S({t}) = {g:.5f}, exact {w:.5f}, more than {MAX_SE} SE ({se:.2e})")


# ---------------------------------------------------------------------------
# study: in-process replication study


def study_worlds(root: Path) -> dict:
    """The acceptance suite's worlds, built from ``configs/demo_dgp.json``
    through the public config codec: the effect world with psi=(0.7,0,0),
    the null world, and the smooth null (exponential baseline, covariates
    without prognosis signal)."""
    from snftm import io

    demo = json.loads((root / "configs" / "demo_dgp.json").read_text(encoding="utf-8"))

    def world(psi0, baseline=None, bin_coef=None):
        d = json.loads(json.dumps(demo))
        d["psi0"] = list(psi0)
        if baseline is not None:
            d["baseline"] = baseline
        if bin_coef is not None:
            d["covariate_law"]["bin_coef"] = bin_coef
        return io.dgp_config_from_dict(d)

    return {
        "gest": world((GEST_PSI, 0.0, 0.0)),
        "null": world((0.0, 0.0, 0.0)),
        "smooth": world((0.0, 0.0, 0.0), baseline={"bounds": [0.0], "rates": [0.45]}, bin_coef=0.0),
    }


def setup_study(root: Path, seed: int) -> dict:
    from snftm import gest, mle
    from snftm.shift import ShiftParams

    worlds = study_worlds(root)
    return {
        "seed": seed,
        "worlds": worlds,
        "spec": gest.TreatmentModelSpec(),
        "truth": ShiftParams((GEST_PSI, 0.0, 0.0)),
        "lr_template": mle.ParametricModel.template(worlds["smooth"].grid, (0.0,), ()),
    }


def check_estimate(est):
    off = abs(est.active[0] - GEST_PSI)
    if not off <= MAX_SE * est.se[0]:
        raise CheckFailed(f"psi_hat {est.active[0]:.4f} is {off / est.se[0]:.1f} SE from {GEST_PSI}")


def check_converged(fit):
    if not fit.converged:
        raise CheckFailed("mle.fit reports converged=False")


def tasks_study(state: dict, root: Path):
    from snftm import dgp, gest, mle

    seed, spec = state["seed"], state["spec"]

    def gest_rep(ctx, i):
        s = derive_seed(seed, 1, i)
        with ctx.step("step1"):
            cohort = ctx.op("dgp", "sample_cohort", lambda: dgp.sample_cohort(state["worlds"]["gest"], GEST_N, seed=s))
        with ctx.step("step2"):
            ctx.op("gest", "estimate_psi",
                   lambda: gest.estimate_psi(cohort, spec, [(-0.1, 1.5)], compute_ci=False),
                   check_estimate)
        with ctx.step("step3"):
            ctx.op("gest", "g_test", lambda: gest.g_test(cohort, spec, state["truth"]))

    def gnull_rep(ctx, i):
        s = derive_seed(seed, 2, i)
        with ctx.step("step4"):
            cohort = ctx.op("dgp", "sample_cohort", lambda: dgp.sample_cohort(state["worlds"]["null"], GNULL_N, seed=s))
            ctx.op("gest", "g_test", lambda: gest.g_test(cohort, spec))

    def lr_rep(ctx, i):
        s = derive_seed(seed, 3, i)
        with ctx.step("step5"):
            cohort = ctx.op("dgp", "sample_cohort", lambda: dgp.sample_cohort(state["worlds"]["smooth"], LR_N, seed=s))
            fit = ctx.op("mle", "fit", lambda: mle.fit(cohort, state["lr_template"]), check_converged)
            ctx.op("mle", "test_null", lambda: mle.test_null(cohort, fit))

    return [Task("gest", 3.0, gest_rep), Task("gnull", 0.5, gnull_rep), Task("lr", 0.5, lr_rep)]


def named_study(med: dict) -> dict:
    return {
        "study.gest_rep_s": (med["step1"] + med["step2"] + med["step3"], "s"),
        "study.gnull_rep_s": (med["step4"], "s"),
        "study.lr_rep_s": (med["step5"], "s"),
    }


# ---------------------------------------------------------------------------
# cli: one subprocess per command on one cohort
#
# The cohort is the documented one: `snftm simulate` at the CLI's fixed default
# seed, whatever the run seed.  The likelihood fit's work depends on the data
# (900 to 1717 simplex evaluations over five 20k cohorts), so cohorts drawn
# from the run seed would spread `mle` by about 30% between runs; the study
# workload covers seed-to-seed variation of the same layers.


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_commands(configs: Path, work: Path) -> dict[str, list[str]]:
    """The analyst's pipeline, in order; ``simulate`` writes the cohort the
    others read."""
    cohort = str(work / "cohort.csv")
    spec = str(configs / "treatment_model.json")
    return {
        "simulate": ["simulate", "--dgp", str(configs / "demo_dgp.json"), "--n", str(CLI_N),
                     "--out", cohort],
        "gtest": ["gtest", "--cohort", cohort, "--spec", spec, "--out", str(work / "gtest.json")],
        "estimate": ["estimate", "--cohort", cohort, "--spec", spec, "--box=-1.5:0.5",
                     "--out", str(work / "est.json")],
        "mle": ["mle", "--cohort", cohort, "--model", str(configs / "mle_model.json"),
                "--out", str(work / "fit.json")],
        "gcomp": ["gcomp", "--laws", cohort, "--regime", str(configs / "regime_treat_if_sick.json"),
                  "--t-grid", "0.2:3.0:0.2", "--out", str(work / "curve.csv")],
    }


def cli_checks(work: Path) -> dict:
    """Output checks of each command, on the files it wrote.  A missing,
    unreadable or malformed file fails the check."""

    def checked(fn):
        def check():
            try:
                fn()
            except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
                raise CheckFailed(f"{fn.__name__} output unreadable: {type(e).__name__}: {e}") from e
        return check

    def simulate():
        if (work / "cohort.csv").stat().st_size == 0:
            raise CheckFailed("simulate wrote an empty cohort")

    def gtest():
        rep = json.loads((work / "gtest.json").read_text(encoding="utf-8"))
        if not 0.0 <= rep["score_p"] <= 1.0:
            raise CheckFailed(f"gtest score_p {rep['score_p']} outside [0, 1]")

    def estimate():
        est = json.loads((work / "est.json").read_text(encoding="utf-8"))
        lo, hi = est["ci_interval"]
        psi = est["psi_hat"][est["components"][0]]
        if not lo <= psi <= hi:
            raise CheckFailed(f"estimate psi_hat {psi} outside its own CI [{lo}, {hi}]")

    def mle():
        if not json.loads((work / "fit.json").read_text(encoding="utf-8"))["converged"]:
            raise CheckFailed("mle reports converged=False")

    def gcomp():
        rows = (work / "curve.csv").read_text(encoding="utf-8").splitlines()[2:]
        surv = [float(r.split(",")[1]) for r in rows]
        if not surv or any(not 0.0 <= s <= 1.0 for s in surv) or any(b > a for a, b in zip(surv, surv[1:])):
            raise CheckFailed("gcomp curve is not a survival curve")

    return {fn.__name__: checked(fn) for fn in (simulate, gtest, estimate, mle, gcomp)}


def setup_cli(root: Path, seed: int) -> dict:
    from snftm import io

    configs = root / "configs"
    io.load_dgp_config(configs / "demo_dgp.json")
    io.load_treatment_spec(configs / "treatment_model.json")
    io.load_regime(configs / "regime_treat_if_sick.json", 2)
    work = Path(tempfile.mkdtemp(prefix="cli-", dir=root / "perfbench" / "out"))
    return {"seed": seed, "configs": configs, "work": work, "env": cli_env(root)}


def teardown_cli(state: dict) -> None:
    shutil.rmtree(state["work"], ignore_errors=True)


def run_cli(env: dict, args, timeout: float = 170.0) -> subprocess.CompletedProcess:
    """One ``python -m snftm.cli`` command; non-zero exit or a timeout is a
    failed check."""
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "snftm.cli", *args],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as e:
        raise CheckFailed(f"snftm {args[0]} ran over {timeout:.0f} s") from e
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        raise CheckFailed(f"snftm {args[0]} exited {proc.returncode}: {tail[0]}")
    return proc


def tasks_cli(state: dict, root: Path):
    commands = cli_commands(state["configs"], state["work"])
    checks = cli_checks(state["work"])

    def task(step, name):
        def body(ctx, i):
            with ctx.step(step):
                ctx.op("cli", name, lambda: run_cli(state["env"], commands[name]), lambda _: checks[name]())
        return Task(name, 1.0, body)

    return [task(f"step{i}", name) for i, name in enumerate(commands, start=1)]


def named_cli(med: dict) -> dict:
    names = ("simulate", "gtest", "estimate", "mle", "gcomp")
    return {f"cli.{n}_s": (med[f"step{i}"], "s") for i, n in enumerate(names, start=1)}


# ---------------------------------------------------------------------------
# exact: oracle identities, then regime-driven forward walks


def setup_exact(root: Path, seed: int) -> dict:
    from snftm import cfsim, io, oracle
    from snftm.core import TreatmentRegime

    cfg = io.load_dgp_config(root / "configs" / "demo_dgp.json")
    world = oracle.enumerate_world(cfg)
    sick = io.load_regime(root / "configs" / "regime_treat_if_sick.json", cfg.grid.K + 1)
    never = TreatmentRegime.baseline(cfg.grid.K + 1)
    return {
        "seed": seed,
        "cfg": cfg,
        "laws": world.conditional_laws(),
        "fitted": cfsim.FittedWorld.from_dgp_config(cfg),
        "sick": sick,
        "never": never,
        "exact_sick": [world.counterfactual_survival(sick, t) for t in CHECK_TIMES],
        "exact_never": [world.counterfactual_survival(never, t) for t in CHECK_TIMES],
    }


def check_reports(reports: dict):
    bad = [name for name, rep in reports.items() if not rep.passed]
    if bad:
        raise CheckFailed(f"oracle reports failed: {', '.join(sorted(bad))}")


def tasks_exact(state: dict, root: Path):
    from snftm import cfsim, gcomp, oracle

    cfg, seed = state["cfg"], state["seed"]

    def suite(step, name, repeats=1):
        def body(ctx, i):
            with ctx.step(step, repeats):
                for _ in range(repeats):
                    world = ctx.op("oracle", "enumerate_world", lambda: oracle.enumerate_world(cfg))
                    ctx.op("oracle", f"run_suite.{name}", lambda: oracle.run_suite(world, name), check_reports)
        return body

    def mc(ctx, i):
        s = derive_seed(seed, 5, i)
        with ctx.step("step4"):
            ctx.op("gcomp", "mc_gcomp",
                   lambda: gcomp.mc_gcomp(state["laws"], state["sick"], CHECK_TIMES, MC_PATHS, seed=s),
                   lambda res: _within_se("mc_gcomp", res.survival, state["exact_sick"], MC_PATHS))

    def cf(ctx, i):
        s = derive_seed(seed, 6, i)
        with ctx.step("step5"):
            ctx.op("cfsim", "simulate_counterfactual",
                   lambda: cfsim.simulate_counterfactual(
                       state["fitted"], state["never"], CF_DRAWS, seed=s, t_grid=CHECK_TIMES),
                   lambda res: _within_se("cfsim", res.survival, state["exact_never"], CF_DRAWS))

    return [
        Task("verify.gcomp", 2.5, suite("step1", "gcomp")),
        Task("verify.blip", 0.4, suite("step2", "blip")),
        Task("verify.null", 0.3, suite("step3", "null", NULL_REPEATS)),
        Task("mc_gcomp", 1.5, mc),
        Task("cfsim", 1.5, cf),
    ]


def named_exact(med: dict) -> dict:
    return {
        "exact.verify_s": (med["step1"] + med["step2"] + med["step3"], "s"),
        "exact.mc_gcomp_paths_per_s": (MC_PATHS / med["step4"], "paths/s"),
        "exact.cfsim_draws_per_s": (CF_DRAWS / med["step5"], "draws/s"),
    }


WORKLOADS = {
    "study": (setup_study, tasks_study, named_study, None),
    "cli": (setup_cli, tasks_cli, named_cli, teardown_cli),
    "exact": (setup_exact, tasks_exact, named_exact, None),
}
