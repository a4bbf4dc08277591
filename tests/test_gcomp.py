import itertools
import math

import numpy as np
import pytest

from snftm import dgp, gcomp, oracle
from snftm.core import (
    CohortFormatError,
    Cohort,
    SurvivalCurve,
    TimeGrid,
    Trajectory,
    TreatmentRegime,
    UndefinedCellError,
    apply_regime,
)

THRESHOLD = TreatmentRegime.threshold(2, level=1)


def nested_sum_reference(laws, regime, lbar, t):
    """Direct evaluation of the full nested-sum identification formula,
    written independently of the recursion it checks."""
    grid = laws.grid
    k = len(lbar) - 1
    p = grid.interval_index(t)
    total = 0.0
    level_ranges = [range(laws.covariate_levels[m]) for m in range(k + 1, p + 1)]
    for continuation in itertools.product(*level_ranges):
        hist = tuple(lbar) + continuation
        abar = apply_regime(regime, hist)
        term = laws.survival(p + 1, hist, abar).eval(t)
        ok = True
        for m in range(k + 1, p + 1):
            prefix = hist[:m]
            aprefix = apply_regime(regime, prefix)
            if (m, prefix, aprefix) not in laws.covariate_transition:
                ok = False
                break
            term *= laws.survival(m, prefix, aprefix).eval(grid.tau(m))
            term *= laws.transition(m, prefix, aprefix)[hist[m]]
        if ok:
            total += term
    return total


def test_single_interval_case_reduces_to_conditional_survival(rich_world, rich_laws):
    # with one decision taken, conditional counterfactual survival inside the
    # first interval is just observed conditional survival at the regime dose
    for l0 in (0, 1):
        a0 = THRESHOLD.rules[0]((l0,))
        for t in (0.2, 0.6, 1.0):
            got = gcomp.s_conditional(rich_laws, THRESHOLD, (l0,), t)
            want = rich_laws.survival(1, (l0,), (a0,)).eval(t)
            assert got == pytest.approx(want, rel=1e-14)


def test_recursion_equals_nested_sum(rich_laws):
    for regime in (THRESHOLD, TreatmentRegime.baseline(2), TreatmentRegime.static((1, 0))):
        for lbar in ((0,), (1,)):
            for t in (0.4, 1.3, 2.7, 6.0):
                got = gcomp.s_conditional(rich_laws, regime, lbar, t)
                want = nested_sum_reference(rich_laws, regime, lbar, t)
                assert got == pytest.approx(want, rel=1e-14)


def test_survival_approaches_one_at_interval_start(rich_laws):
    val = gcomp.s_conditional(rich_laws, THRESHOLD, (1, 0), 1.0 + 1e-12)
    assert val == pytest.approx(1.0, abs=1e-10)


def test_marginal_is_initial_mixture(rich_laws):
    t = 1.9
    start = rich_laws.transition(0, (), ())
    mix = sum(
        start[l0] * gcomp.s_conditional(rich_laws, THRESHOLD, (l0,), t) for l0 in (0, 1)
    )
    assert gcomp.s_marginal(rich_laws, THRESHOLD, t) == pytest.approx(mix, rel=1e-14)


def test_curves_nonincreasing_and_continuous(rich_laws):
    ts = np.linspace(0.05, 4.0, 160)
    vals = np.array([gcomp.s_marginal(rich_laws, THRESHOLD, float(t)) for t in ts])
    assert np.all(np.diff(vals) <= 1e-15)
    assert np.max(np.abs(np.diff(vals))) < 0.05  # no jumps at this resolution


def test_identification_against_exact_counterfactual(rich_world, rich_laws):
    for t in np.linspace(0.15, 3.0, 20):
        want = rich_world.counterfactual_survival(THRESHOLD, float(t))
        got = gcomp.s_marginal(rich_laws, THRESHOLD, float(t))
        assert abs(got - want) < 1e-10


def test_treatment_law_independence(rich_config, rich_laws):
    # a different dosing mechanism, same structural world otherwise
    other = dgp.DgpConfig(
        rich_config.grid,
        rich_config.baseline,
        rich_config.thresholds,
        rich_config.covariate_law,
        dgp.TreatmentLaw.from_logistic(2, intercept=0.4, l_coef=-0.9, a_prev_coef=0.2),
        rich_config.psi0,
    )
    other_laws = oracle.enumerate_world(other).conditional_laws()
    for key, vec in rich_laws.covariate_transition.items():
        np.testing.assert_allclose(other_laws.covariate_transition[key], vec, atol=1e-12)
    for t in (0.5, 1.4, 3.0):
        a = gcomp.s_marginal(rich_laws, THRESHOLD, t)
        b = gcomp.s_marginal(other_laws, THRESHOLD, t)
        assert a == pytest.approx(b, abs=1e-12)


def test_undefined_cell_error_names_cell(rich_laws):
    lonely = TreatmentRegime.static((1, 1))
    trimmed = gcomp.ConditionalLaws(
        rich_laws.grid,
        rich_laws.covariate_levels,
        {k: v for k, v in rich_laws.covariate_transition.items() if k[2] != (1,)},
        rich_laws.interval_survival,
    )
    with pytest.raises(UndefinedCellError, match=r"\(1,\)"):
        gcomp.s_marginal(trimmed, lonely, 1.5)


class TestEstimateLaws:
    def test_empty_cohort_rejected(self, rich_config):
        with pytest.raises(CohortFormatError):
            gcomp.estimate_laws(Cohort((), rich_config.grid))

    def test_clone_cohort_gives_point_masses_and_rate(self):
        grid = TimeGrid((0.0, 1.0))
        clones = tuple(Trajectory((1, 0), (1, 1), 1.5) for _ in range(8))
        laws = gcomp.estimate_laws(Cohort(clones, grid))
        np.testing.assert_allclose(laws.transition(0, (), ()), [0.0, 1.0])
        np.testing.assert_allclose(laws.transition(1, (1,), (1,)), [1.0])
        # everyone survives interval 1 => zero fitted hazard there
        assert laws.survival(1, (1,), (1,)).eval(1.0) == 1.0
        # all die at 1.5: rate = events / person-time = 1 / 0.5
        tail = laws.survival(2, (1, 0), (1, 1))
        assert tail.rates[0] == pytest.approx(8 / (8 * 0.5))

    def test_single_subject_cohort_is_valid(self):
        grid = TimeGrid((0.0, 1.0))
        laws = gcomp.estimate_laws(Cohort((Trajectory((0,), (1,), 0.7),), grid))
        np.testing.assert_allclose(laws.transition(0, (), ()), [1.0])
        assert laws.survival(1, (0,), (1,)).rates[0] == pytest.approx(1 / 0.7)

    def test_consistency_against_true_laws(self, rich_config, rich_laws, big_cohort):
        est = gcomp.estimate_laws(big_cohort)
        n = len(big_cohort)
        for key, vec in rich_laws.covariate_transition.items():
            got = est.transition(key[0], key[1], key[2])
            cell_n = n if key[0] == 0 else None
            for level, p in enumerate(vec):
                se = math.sqrt(max(p * (1 - p), 1e-12) / (cell_n or n * 0.05))
                assert abs(got[level] - p) < 4.0 * se + 5e-3


class TestMcGcomp:
    def test_deterministic_world_exact(self):
        grid = TimeGrid((0.0, 1.0))
        transitions = {(0, (), ()): np.array([1.0]), (1, (0,), (0,)): np.array([1.0])}
        curves = {
            (1, (0,), (0,)): SurvivalCurve((0.0,), (0.5,)),
            (2, (0, 0), (0, 0)): SurvivalCurve((1.0,), (0.5,)),
        }
        laws = gcomp.ConditionalLaws(grid, (1, 1), transitions, curves)
        never = TreatmentRegime.baseline(2)
        res = gcomp.mc_gcomp(laws, never, [0.5, 2.0], n_sim=4000, seed=1)
        exact = math.exp(-0.25)
        assert res.survival[0] == pytest.approx(exact, abs=4 * res.stderr[0] + 1e-9)
        # survived-everyone grid point has zero binomial stderr
        degenerate = gcomp.mc_gcomp(laws, never, [1e-9], n_sim=100, seed=1)
        assert degenerate.survival[0] == 1.0 and degenerate.stderr[0] == 0.0

    def test_seed_determinism(self, rich_laws):
        a = gcomp.mc_gcomp(rich_laws, THRESHOLD, [0.5, 1.5], 500, seed=9)
        b = gcomp.mc_gcomp(rich_laws, THRESHOLD, [0.5, 1.5], 500, seed=9)
        np.testing.assert_array_equal(a.event_times, b.event_times)

    def test_against_exact_marginal(self, rich_world, rich_laws):
        t_grid = np.array([0.4, 0.9, 1.5, 2.5])
        res = gcomp.mc_gcomp(rich_laws, THRESHOLD, t_grid, n_sim=100_000, seed=12)
        for t, est, se in zip(t_grid, res.survival, res.stderr):
            want = gcomp.s_marginal(rich_laws, THRESHOLD, float(t))
            assert abs(est - want) < 3.0 * se
