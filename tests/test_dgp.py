import math

import numpy as np
import pytest

from snftm import dgp, rng
from snftm.core import Cohort, CohortFormatError, SurvivalCurve, TimeGrid
from snftm.shift import ShiftParams, blip_down

from conftest import make_config


def test_null_params_reproduce_baseline_time_exactly():
    cfg = make_config(psi0=(0.0, 0.0, 0.0))
    uniforms = rng.stream(cfg.seed, "dgp").random((200, cfg.draws_per_subject))
    cohort = dgp.sample_cohort(cfg, 200)
    for i, traj in enumerate(cohort):
        t0 = cfg.baseline.quantile(1.0 - uniforms[i, 0])
        assert traj.event_time == t0


def test_forced_baseline_dosing_reproduces_baseline_time():
    cfg = make_config()
    table = {
        key: np.array([1.0, 0.0]) for key in cfg.treatment_law.table
    }  # dose always 0
    never_treated = dgp.DgpConfig(
        cfg.grid, cfg.baseline, cfg.thresholds, cfg.covariate_law,
        dgp.TreatmentLaw(cfg.treatment_law.levels, table), cfg.psi0,
    )
    uniforms = rng.stream(never_treated.seed, "dgp").random((100, cfg.draws_per_subject))
    for i, traj in enumerate(dgp.sample_cohort(never_treated, 100)):
        assert traj.treatments == (0,) * traj.n_visits
        assert traj.event_time == never_treated.baseline.quantile(1.0 - uniforms[i, 0])


def test_hand_inversion_example():
    # dose 1 in the first interval with scale 1/2 doubles a baseline time of 0.25
    grid = TimeGrid((0.0, 1.0))
    baseline = SurvivalCurve((0.0,), (1.0,))
    cov = dgp.CovariateLaw.from_logistic(2, 1, intercept=-30.0)  # L = 0 almost surely
    trt = dgp.TreatmentLaw.from_logistic(2, intercept=30.0)  # dose 1 almost surely
    cfg = dgp.DgpConfig(grid, baseline, (), cov, trt, ShiftParams((math.log(0.5), 0.0, 0.0)))
    u_t0 = 1.0 - baseline.eval(0.25)  # quantile(1 - u) = 0.25
    traj, = Cohort.from_columns(cfg.grid, *dgp._walk(cfg, np.array([[u_t0, 0.5, 0.5, 0.5, 0.5]])))
    assert traj.treatments == (1,)
    assert traj.event_time == 0.5


def test_rank_preservation_exact(rich_config):
    cohort = dgp.sample_cohort(rich_config, 300, seed=11)
    uniforms = rng.stream(11, "dgp").random((300, rich_config.draws_per_subject))
    model = rich_config.shift_model()
    for i, traj in enumerate(cohort):
        drawn = rich_config.baseline.quantile(1.0 - uniforms[i, 0])
        assert blip_down(model, traj) == pytest.approx(drawn, rel=1e-14)


def test_determinism_and_subject_stability(rich_config):
    a = dgp.sample_cohort(rich_config, 40, seed=3)
    b = dgp.sample_cohort(rich_config, 40, seed=3)
    assert a.subjects == b.subjects
    bigger = dgp.sample_cohort(rich_config, 60, seed=3)
    assert bigger.subjects[:40] == a.subjects
    single = dgp.sample_trajectory(rich_config, rng.stream(3, "dgp"))
    assert single == a.subjects[0]


def test_cohort_size_validation(rich_config):
    with pytest.raises(CohortFormatError):
        dgp.sample_cohort(rich_config, 0)


def test_null_world_matches_baseline_by_ks():
    cfg = make_config(psi0=(0.0, 0.0, 0.0))
    n = 10_000
    cohort = dgp.sample_cohort(cfg, n, seed=8)
    times = np.sort([t.event_time for t in cohort])
    grid_u = np.array([cfg.baseline.eval(t) for t in times])
    empirical_above = 1.0 - np.arange(1, n + 1) / n
    ks = np.max(
        np.maximum(np.abs(grid_u - empirical_above), np.abs(grid_u - (empirical_above + 1.0 / n)))
    )
    assert ks < 1.36 / math.sqrt(n)


def test_blipped_times_follow_baseline_law(rich_config):
    # removing all treatment effects from a large cohort recovers the
    # never-treated law (Kolmogorov-Smirnov at the 95% band)
    from snftm.shift import BlipTable

    cohort = dgp.sample_cohort(rich_config, 10_000, seed=19)
    t0s = np.sort(BlipTable.from_cohort(cohort).t0(np.asarray(rich_config.psi0.psi)))
    n = len(t0s)
    model_surv = np.array([rich_config.baseline.eval(t) for t in t0s])
    empirical_above = 1.0 - np.arange(1, n + 1) / n
    ks = np.max(np.abs(model_surv - empirical_above))
    assert ks < 1.36 / math.sqrt(n)


def test_admissibility_enforced():
    cfg = make_config()
    bad = {key: np.array([0.0, 1.0]) for key in cfg.treatment_law.table}
    with pytest.raises(CohortFormatError):
        dgp.TreatmentLaw(cfg.treatment_law.levels, bad)


def test_probability_vectors_validated():
    with pytest.raises(CohortFormatError):
        dgp.CovariateLaw((2,), {(0, 0, (), ()): np.array([0.6, 0.6])})
    for bad in ([0.5, math.nan], [math.nan, math.nan]):  # NaN fails neither the sign nor the sum test
        with pytest.raises(CohortFormatError, match="must be finite"):
            dgp.CovariateLaw((2,), {(0, 0, (), ()): np.array(bad)})


class TestTrueConditionalLaws:
    def test_no_prognosis_dependence_returns_configured_vectors(self):
        cfg = make_config(bin_coef=0.0)
        laws = dgp.true_conditional_laws(cfg)
        expect0 = cfg.covariate_law.probs(0, 0, (), ())
        np.testing.assert_allclose(laws.transition(0, (), ()), expect0, rtol=1e-13)
        expect1 = cfg.covariate_law.probs(1, 0, (1,), (1,))
        np.testing.assert_allclose(laws.transition(1, (1,), (1,)), expect1, rtol=1e-13)

    def test_null_params_recover_renormalized_baseline(self):
        cfg = make_config(psi0=(0.0, 0.0, 0.0), bin_coef=0.0)
        laws = dgp.true_conditional_laws(cfg)
        tail = laws.survival(2, (1, 0), (1, 1))
        conditional = cfg.baseline.conditional_from(1.0)
        for t in (1.1, 1.6, 2.4, 5.0):
            assert tail.eval(t) == pytest.approx(conditional.eval(t), rel=1e-12)

    def test_monte_carlo_cross_check(self, rich_config, big_cohort):
        laws = dgp.true_conditional_laws(rich_config)
        # transition cells: empirical frequency within 4 binomial SEs
        for cell in (((), ()), (((1,), (1,))), (((0,), (1,)))):
            lbar, abar = cell
            m = len(lbar)
            at_risk = [t for t in big_cohort if t.n_visits > m
                       and t.covariates[:m] == lbar and t.treatments[:m] == abar]
            frac = np.mean([t.covariates[m] == 1 for t in at_risk])
            p = laws.transition(m, lbar, abar)[1]
            se = math.sqrt(p * (1.0 - p) / len(at_risk))
            assert abs(frac - p) < 4.0 * se
        # interval survival within 4 SEs
        curve = laws.survival(2, (1, 1), (1, 0))
        sel = [t.event_time for t in big_cohort
               if t.n_visits == 2 and t.covariates == (1, 1) and t.treatments == (1, 0)]
        for t_probe in (1.4, 2.2, 3.5):
            frac = np.mean([T > t_probe for T in sel])
            p = curve.eval(t_probe)
            se = math.sqrt(p * (1.0 - p) / len(sel))
            assert abs(frac - p) < 4.0 * se
