import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from snftm import dgp, mle, oracle
from snftm.core import (
    Cohort,
    NonIdentifiableError,
    StructuralZeroError,
    SurvivalCurve,
    TimeGrid,
    Trajectory,
)
from snftm.shift import ShiftParams

from conftest import RICH_PSI, make_smooth_null_config


def model_at_truth(cfg) -> mle.ParametricModel:
    return mle.ParametricModel(
        grid=cfg.grid,
        psi=cfg.psi0,
        baseline_bounds=cfg.baseline.bounds,
        baseline_rates=cfg.baseline.rates,
        bins=cfg.thresholds,
        covariate_probs={
            (k, lp, ap, b): tuple(v)
            for (k, b, lp, ap), v in cfg.covariate_law.table.items()
        },
    )


def treatment_log_factors(cfg, traj) -> float:
    return sum(
        math.log(cfg.treatment_law.probs(k, traj.covariates[: k + 1], traj.treatments[:k])[traj.treatments[k]])
        for k in range(traj.n_visits)
    )


def test_full_density_identity_on_oracle(rich_config, rich_world):
    model = model_at_truth(rich_config)
    cohort = dgp.sample_cohort(rich_config, 200, seed=31)
    for traj in cohort:
        got = math.exp(mle.log_density(model, traj) + treatment_log_factors(rich_config, traj))
        want = rich_world.observed_density(traj.covariates, traj.treatments, traj.event_time)
        assert got == pytest.approx(want, rel=1e-10)


def test_jacobian_term_is_log_scale():
    # single blip with scale 1/2: the density picks up exactly log(1/2)
    grid = TimeGrid((0.0, 1.0))
    base = SurvivalCurve((0.0,), (1.0,))
    half = mle.ParametricModel(
        grid=grid,
        psi=ShiftParams((math.log(0.5), 0.0, 0.0)),
        baseline_bounds=(0.0,),
        baseline_rates=(1.0,),
        bins=(),
        covariate_probs={(0, (), (), 0): (1.0,)},
    )
    traj = Trajectory((0,), (1,), 0.5)  # blips down to 0.25
    expect = math.log(0.5) + base.log_density(0.25) + math.log(1.0)
    assert mle.log_density(half, traj) == pytest.approx(expect, rel=1e-14)


def test_factorized_case_at_null():
    cfg = make_smooth_null_config()
    model = model_at_truth(cfg)
    traj = dgp.sample_trajectory(cfg, __import__("snftm.rng", fromlist=["stream"]).stream(5, "dgp"))
    expect = cfg.baseline.log_density(traj.event_time)
    for k in range(traj.n_visits):
        expect += math.log(
            cfg.covariate_law.probs(k, cfg.bin_index(traj.event_time), traj.covariates[:k], traj.treatments[:k])[
                traj.covariates[k]
            ]
        )
    assert mle.log_density(model, traj) == pytest.approx(expect, rel=1e-12)


def test_structural_zero_flagged(rich_config):
    model = model_at_truth(rich_config)
    stripped = mle.ParametricModel(
        grid=model.grid,
        psi=model.psi,
        baseline_bounds=model.baseline_bounds,
        baseline_rates=model.baseline_rates,
        bins=model.bins,
        covariate_probs={},
    )
    traj = Trajectory((0,), (0,), 0.5)
    with pytest.raises(StructuralZeroError):
        mle.log_density(stripped, traj)


def test_change_of_variables_conserves_mass(rich_config):
    # summed over full records and integrated over the event time, the model
    # density at the truth (with treatment factors restored) is a probability
    # density: total mass 1
    cfg = rich_config
    model = model_at_truth(cfg)
    world = oracle.enumerate_world(cfg)
    total = 0.0
    for p, (lo, hi) in ((0, (1e-9, 1.0)), (1, (1.0 + 1e-9, 400.0))):
        for hist in itertools.product((0, 1), repeat=2 * (p + 1)):
            lbar, abar = hist[: p + 1], hist[p + 1 :]
            node = world.stages[p][(lbar, abar)]
            cuts = [
                c
                for x in (1.0, 1.5, 2.0)
                if node.u_alive < x
                for c in (node.t_of_t0(cfg.grid, x),)
                if lo < c < hi
            ]

            def joint(t):
                traj = Trajectory(lbar, abar, t)
                try:
                    ld = mle.log_density(model, traj)
                except StructuralZeroError:
                    return 0.0
                return math.exp(ld + treatment_log_factors(cfg, traj))

            val, _ = integrate.quad(joint, lo, hi, points=cuts, limit=400)
            total += val
    assert total == pytest.approx(1.0, abs=1e-8)


def test_profile_nuisances_match_closed_form(rich_config):
    cohort = dgp.sample_cohort(rich_config, 5000, seed=3)
    template = mle.ParametricModel.template(rich_config.grid, (0.0, 1.0, 2.0), (1.5,))
    fit0 = mle.profile_at(cohort, template, np.asarray(RICH_PSI))
    # independent closed-form rates: events over person-time on the blipped scale
    from snftm.shift import ShiftModel, blip_down

    model = ShiftModel(ShiftParams(RICH_PSI), rich_config.grid)
    t0s = np.array([blip_down(model, traj) for traj in cohort])
    for j, (lo, hi) in enumerate(((0.0, 1.0), (1.0, 2.0), (2.0, math.inf))):
        events = np.sum((t0s > lo) & (t0s <= hi))
        pt = np.sum(np.clip(np.minimum(t0s, hi) - lo, 0.0, None))
        assert fit0.model.baseline_rates[j] == pytest.approx(events / pt, rel=1e-6)


def test_fit_recovers_truth_within_three_se(rich_config):
    cohort = dgp.sample_cohort(rich_config, 8000, seed=21)
    template = mle.ParametricModel.template(rich_config.grid, (0.0, 1.0, 2.0), (1.5,))
    fit = mle.fit(cohort, template)
    assert fit.converged
    se = np.sqrt(np.diag(fit.psi_cov))
    err = np.abs(np.asarray(fit.model.psi.psi) - np.asarray(RICH_PSI))
    assert np.all(err < 3.0 * se)


def test_nonzero_start_also_searches_from_zero(rich_config, monkeypatch):
    cohort = dgp.sample_cohort(rich_config, 500, seed=21)
    template = mle.ParametricModel.template(rich_config.grid, (0.0, 1.0, 2.0), (1.5,))
    template = replace(template, psi=ShiftParams((-0.4, 0.1, 0.2)))
    staged, searches = mle._staged_nelder_mead, []

    def recording(neg, start, max_evals):
        searches.append((np.array(start), max_evals, staged(neg, start, max_evals)))
        return searches[-1][2]

    monkeypatch.setattr(mle, "_staged_nelder_mead", recording)
    fit = mle.fit(cohort, template)
    assert [(s.tolist(), n) for s, n, _ in searches] == [
        ([-0.4, 0.1, 0.2], mle.MAX_EVALS // 2), ([0.0, 0.0, 0.0], mle.MAX_EVALS // 2)
    ]
    assert fit.converged
    best = min((res for *_, res in searches), key=lambda res: res.fun)
    assert fit.model.psi.psi == tuple(best.x)


def test_degenerate_cohort_rejected(rich_config):
    clones = tuple(Trajectory((1, 0), (1, 1), 1.5) for _ in range(50))
    cohort = Cohort(clones, rich_config.grid)
    template = mle.ParametricModel.template(rich_config.grid, (0.0, 1.0), ())
    with pytest.raises(NonIdentifiableError):
        mle.fit(cohort, template)


def test_lr_zero_when_estimate_is_null(rich_config):
    cohort = dgp.sample_cohort(rich_config, 500, seed=2)
    template = mle.ParametricModel.template(rich_config.grid, (0.0, 1.0, 2.0), (1.5,))
    pinned = mle.profile_at(cohort, template, np.zeros(3))
    pinned_with_info = mle.MleFit(
        pinned.model, pinned.loglik, np.eye(3), np.eye(3), 0.0, True, 1
    )
    report = mle.test_null(cohort, pinned_with_info)
    assert report.lr == 0.0 and report.lr_p == 1.0


def test_dropping_treatment_factors_shifts_loglik_by_constant(rich_config):
    cohort = dgp.sample_cohort(rich_config, 800, seed=13)
    template = mle.ParametricModel.template(rich_config.grid, (0.0, 1.0, 2.0), (1.5,))
    tables = mle._ProfileTables(cohort, template)
    constant = sum(treatment_log_factors(rich_config, traj) for traj in cohort)
    for psi in (np.zeros(3), np.array([0.3, -0.1, 0.2]), np.asarray(RICH_PSI)):
        with_factors = tables.profile(psi)[0] + constant
        assert with_factors - tables.profile(psi)[0] == pytest.approx(constant, rel=1e-15)


def test_gradient_matches_quadratic_surface(rich_config):
    # the reported envelope score agrees with an independent central-difference
    # read of the smoothed surface at matching window
    cohort = dgp.sample_cohort(rich_config, 4000, seed=44)
    template = mle.ParametricModel.template(rich_config.grid, (0.0, 1.0, 2.0), (1.5,))
    tables = mle._ProfileTables(cohort, template)
    neg = lambda p: -tables.profile(p)[0]
    x0 = np.asarray(RICH_PSI)
    grad, _ = mle._quadratic_surface(neg, x0, np.full(3, 0.08))
    fd = np.empty(3)
    for i in range(3):
        e = np.zeros(3)
        e[i] = 0.08
        fd[i] = (neg(x0 + e) - neg(x0 - e)) / 0.16
    np.testing.assert_allclose(grad, fd, rtol=0.3, atol=2.0)
