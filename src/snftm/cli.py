"""Single entry point: simulate / gcomp / gtest / estimate / mle / cfsim / verify.

Every run is deterministic: the commands that draw random numbers (simulate,
gcomp --mc, cfsim) take ``--seed``, a fixed constant by default.  Each run
logs its resolved configuration as one JSON line to stderr and writes outputs
atomically.
Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

# gest and mle load scipy: the commands that run them import them
from . import cfsim as cfsim_mod
from . import dgp as dgp_mod
from . import gcomp as gcomp_mod
from . import io as io_mod
from . import oracle as oracle_mod
from . import rng as rng_mod
from .core import SnftmError
from .shift import ShiftParams

SCHEMA_VERSION = io_mod.SCHEMA_VERSION


def _log_run(sub: str, args: argparse.Namespace):
    unread = {"func"}
    if sub == "gcomp" and not args.mc:
        unread.add("seed")  # the exact recursion draws nothing
    payload = {"command": sub}
    payload.update({k: v for k, v in sorted(vars(args).items()) if k not in unread and v is not None})
    print(json.dumps(payload, default=str), file=sys.stderr)


def _write_json(path, obj):
    """``obj`` with the schema version, written to ``path`` or, without one, printed."""
    text = json.dumps({"schema_version": SCHEMA_VERSION, **obj}, indent=2, default=_jsonable)
    if not path:
        print(text)
    else:
        io_mod.atomic_write_text(path, text + "\n")


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return v.tolist()
    raise TypeError(f"not JSON-serializable: {type(v)}")


def _write_curve_csv(path, rows):
    lines = [f"# schema_version={SCHEMA_VERSION}", "t,survival,stderr"]
    lines += [",".join(repr(float(c)) for c in row) for row in rows]
    io_mod.atomic_write_text(path, "\n".join(lines) + "\n")


def _numbers(text: str, sep: str, ok, what: str, convert=float) -> tuple[float, ...]:
    """An argparse type: finite numbers, each read by ``convert``, separated
    by ``sep``, for which ``ok`` holds."""
    try:
        values = tuple(map(convert, text.split(sep)))
    except ValueError:
        values = (math.nan,)
    if not (all(-math.inf < v < math.inf for v in values) and ok(values)):
        raise argparse.ArgumentTypeError(f"need {what}, got {text!r}")
    return values


def _psi_arg(text: str) -> tuple[float, ...]:
    return _numbers(text, ",", lambda v: len(v) == 3, "3 finite numbers psi1,psi2,psi3")


def _box_arg(text: str) -> list[tuple[float, ...]]:
    ok = lambda v: len(v) == 2 and v[0] < v[1]
    return [_numbers(part, ":", ok, "lo:hi pairs of finite numbers with lo < hi") for part in text.split(",")]


def _pitch_arg(text: str) -> float:
    return _numbers(text, ",", lambda v: len(v) == 1 and v[0] > 0.0, "a positive finite number")[0]


def _seed_arg(text: str) -> int:
    return _numbers(text, ",", lambda v: len(v) == 1 and v[0] >= 0, "a non-negative integer", int)[0]


def _threads_arg(text: str) -> int:
    return _numbers(text, ",", lambda v: len(v) == 1 and v[0] >= 1, "a positive integer", int)[0]


def _cmd_simulate(args) -> int:
    cfg = io_mod.load_dgp_config(args.dgp)
    cohort = dgp_mod.sample_cohort(cfg, args.n, seed=args.seed)
    io_mod.write_cohort(
        args.out, cohort,
        covariate_levels=cfg.covariate_law.levels,
        treatment_levels=cfg.treatment_law.levels,
    )
    return 0


def _load_laws(path):
    if str(path).endswith(".csv"):
        cohort, _meta = io_mod.read_cohort(path)
        return gcomp_mod.estimate_laws(cohort), cohort.grid
    cfg = io_mod.load_dgp_config(path)
    # The exact laws, by closed-form enumeration of at most 10 million history cells.
    return oracle_mod.enumerate_world(cfg, max_cells=10_000_000).conditional_laws(), cfg.grid


def _cmd_gcomp(args) -> int:
    laws, grid = _load_laws(args.laws)
    regime = io_mod.load_regime(args.regime, grid.K + 1)
    t_grid = io_mod.parse_t_grid(args.t_grid)
    if args.mc:
        rows = gcomp_mod.mc_gcomp(laws, regime, t_grid, args.mc, seed=args.seed).to_rows()
    else:
        rows = ((t, gcomp_mod.s_marginal(laws, regime, float(t)), 0.0) for t in t_grid)
    _write_curve_csv(args.out, rows)
    return 0


def _cmd_gtest(args) -> int:
    from . import gest as gest_mod

    cohort, _ = io_mod.read_cohort(args.cohort)
    spec = io_mod.load_treatment_spec(args.spec)
    psi0 = ShiftParams(args.psi0) if args.psi0 else None
    report = gest_mod.g_test(cohort, spec, psi0)
    payload = {"psi0": list(psi0.psi) if psi0 else None, **report.to_dict()}
    _write_json(args.out, payload)
    return 0


def _cmd_estimate(args) -> int:
    from . import gest as gest_mod

    cohort, _ = io_mod.read_cohort(args.cohort)
    spec = io_mod.load_treatment_spec(args.spec)
    est = gest_mod.estimate_psi(
        cohort, spec, args.box,
        grid_pitch=args.pitch,
        compute_ci=not args.no_ci,
    )
    _write_json(args.out, {
        "psi_hat": est.psi.tolist(),
        "components": list(est.components),
        "active": est.active.tolist(),
        "se": est.se.tolist(),
        "roots": [list(r) for r in est.roots],
        "multiple_roots": est.multiple_roots,
        "ci_interval": list(est.ci_interval()) if len(est.ci_grid) else None,
        "ci_grid": est.ci_grid.tolist(),
        "ci_mask": est.ci_mask.tolist(),
        "score_trace": est.score_trace.tolist(),
        "h_residual": est.h_residual.tolist(),
    })
    return 0


def _cmd_mle(args) -> int:
    from . import mle as mle_mod

    cohort, _ = io_mod.read_cohort(args.cohort)
    template = io_mod.load_mle_template(args.model, cohort.grid)
    fit = mle_mod.fit(cohort, template)
    report = mle_mod.test_null(cohort, fit)
    cov_probs = {
        f"k={k}|l={','.join(map(str, lp))}|a={','.join(map(str, ap))}|bin={b}": list(v)
        for (k, lp, ap, b), v in sorted(fit.model.covariate_probs.items())
    }
    _write_json(args.out, {
        "psi_hat": list(fit.model.psi.psi),
        "se": np.sqrt(np.diag(fit.psi_cov)).tolist(),
        "loglik": fit.loglik,
        "information": fit.information.tolist(),
        "psi_cov": fit.psi_cov.tolist(),
        "baseline_bounds": list(fit.model.baseline_bounds),
        "baseline_rates": list(fit.model.baseline_rates),
        "covariate_probs": cov_probs,
        "converged": fit.converged,
        "grad_norm": fit.grad_norm,
        "n_evals": fit.n_evals,
        "test": report.to_dict(),
    })
    return 0


def _cmd_cfsim(args) -> int:
    world = io_mod.load_fitted_world(args.world)
    regime = io_mod.load_regime(args.regime, world.grid.K + 1)
    t_grid = io_mod.parse_t_grid(args.t_grid) if args.t_grid else None
    res = cfsim_mod.simulate_counterfactual(
        world, regime, args.n, seed=args.seed, t_grid=t_grid
    )
    _write_curve_csv(args.out, res.to_rows())
    if args.mean_out:
        _write_json(args.mean_out, {"mean_survival_time": res.mean, "n": args.n})
    return 0


def _cmd_verify(args) -> int:
    cfg = io_mod.load_dgp_config(args.dgp)
    world = oracle_mod.enumerate_world(cfg)
    reports = oracle_mod.run_suite(world, args.suite)
    passed = all(r.passed for r in reports.values())
    payload = {
        "suite": args.suite,
        "passed": passed,
        "reports": {name: rep.to_dict() for name, rep in sorted(reports.items())},
    }
    _write_json(args.out, payload)
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snftm",
        description="Structural nested failure time models: simulation, "
        "G-computation, G-estimation, likelihood inference and exact verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def seed(p):
        p.add_argument("--seed", type=_seed_arg, default=rng_mod.DEFAULT_SEED,
                       help="master seed (fixed constant by default: runs are reproducible)")

    def threads(p):
        p.add_argument("--threads", type=_threads_arg, default=1, help="accepted for compatibility; has no effect")

    def out(p, required=True):
        p.add_argument("--out", required=required, help="output path" + ("" if required else " (stdout if omitted)"))

    p = sub.add_parser("simulate", help="draw a cohort from a world config")
    p.add_argument("--dgp", required=True)
    p.add_argument("--n", type=int, required=True)
    seed(p)
    threads(p)
    out(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("gcomp", help="counterfactual survival curve by G-computation")
    p.add_argument("--laws", required=True, help="world config JSON (exact) or cohort CSV (estimated)")
    p.add_argument("--regime", required=True)
    p.add_argument("--t-grid", required=True, help="a:b:step")
    p.add_argument("--mc", type=int, default=0, help="Monte-Carlo draws instead of exact recursion")
    seed(p)
    threads(p)
    out(p)
    p.set_defaults(func=_cmd_gcomp)

    p = sub.add_parser("gtest", help="G-null / candidate-parameter test")
    p.add_argument("--cohort", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--psi0", type=_psi_arg, default=None, help="candidate psi1,psi2,psi3 (default: identity)")
    out(p, required=False)
    p.set_defaults(func=_cmd_gtest)

    p = sub.add_parser("estimate", help="G-estimation of the shift parameters")
    p.add_argument("--cohort", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--box", type=_box_arg, required=True, help="lo:hi[,lo:hi...] search box")
    p.add_argument("--pitch", type=_pitch_arg, default=0.01, help="confidence-grid pitch")
    p.add_argument("--no-ci", action="store_true")
    out(p)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("mle", help="parametric maximum likelihood fit and null tests")
    p.add_argument("--cohort", required=True)
    p.add_argument("--model", required=True)
    out(p)
    p.set_defaults(func=_cmd_mle)

    p = sub.add_parser("cfsim", help="simulate counterfactual outcomes under a regime")
    p.add_argument("--world", required=True)
    p.add_argument("--regime", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t-grid", default=None)
    p.add_argument("--mean-out", default=None)
    seed(p)
    threads(p)
    out(p)
    p.set_defaults(func=_cmd_cfsim)

    p = sub.add_parser("verify", help="exact theorem checks on a small world")
    p.add_argument("--dgp", required=True)
    p.add_argument("--suite", choices=("gcomp", "blip", "null", "all"), default="all")
    threads(p)
    out(p, required=False)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    _log_run(args.command, args)
    try:
        return args.func(args)
    except SnftmError as e:
        print(f"snftm: error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
