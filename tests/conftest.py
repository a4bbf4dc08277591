import itertools
import math

import pytest

from snftm import dgp
from snftm.core import SurvivalCurve, TimeGrid
from snftm.shift import ShiftParams

RICH_PSI = (math.log(0.5), 0.2, -0.25)


def make_config(psi0=RICH_PSI, bin_coef=-1.2, seed=42, baseline=None, thresholds=(1.5,)):
    """The standard two-period binary instance used across the suite.

    Sick subjects (low never-treated time) are likelier to show L = 1, and
    L = 1 subjects are likelier to be treated: time-dependent confounding by
    construction.
    """
    grid = TimeGrid((0.0, 1.0))
    baseline = baseline or SurvivalCurve((0.0, 1.0, 2.0), (0.5, 0.4, 0.3))
    cov = dgp.CovariateLaw.from_logistic(
        2, len(thresholds) + 1, intercept=-0.4, bin_coef=bin_coef,
        l_prev_coef=0.5, a_prev_coef=-0.3,
    )
    trt = dgp.TreatmentLaw.from_logistic(2, intercept=-0.8, l_coef=1.4, a_prev_coef=0.6)
    return dgp.DgpConfig(grid, baseline, thresholds, cov, trt, ShiftParams(psi0), seed=seed)


def table_law_config(levels, psi0=RICH_PSI, thresholds=(1.5,)):
    """A world with table laws for any covariate level vector, one visit per
    entry, 0.8 apart, binary doses.  Worse prognosis bins favour high
    covariate codes, which favour dosing: confounding as in
    :func:`make_config`, with every dose at every history possible."""
    n = len(levels)
    treatment_levels = (2,) * n

    def law(n_codes, slope):
        weights = [math.exp(slope * j / max(n_codes - 1, 1)) for j in range(n_codes)]
        return [w / sum(weights) for w in weights]

    def last(hist, level_counts):
        return hist[-1] / max(level_counts[len(hist) - 1] - 1, 1) if hist else 0.0

    cov, trt = {}, {}
    for k in range(n):
        for lprev in itertools.product(*map(range, levels[:k])):
            for aprev in itertools.product(*map(range, treatment_levels[:k])):
                l_in, a_in = last(lprev, levels), last(aprev, treatment_levels)
                for b in range(len(thresholds) + 1):
                    cov[(k, b, lprev, aprev)] = law(levels[k], -0.4 - 0.8 * b + 0.7 * l_in - 0.4 * a_in)
                for l_k in range(levels[k]):
                    l_now = last(lprev + (l_k,), levels)
                    trt[(k, lprev + (l_k,), aprev)] = law(treatment_levels[k], -0.5 + 1.1 * l_now + 0.9 * a_in)
    return dgp.DgpConfig(
        TimeGrid(tuple(0.8 * k for k in range(n))),
        SurvivalCurve((0.0, 1.0, 2.0), (0.6, 0.4, 0.3)),
        thresholds,
        dgp.CovariateLaw(tuple(levels), cov),
        dgp.TreatmentLaw(treatment_levels, trt),
        ShiftParams(psi0),
    )


def make_smooth_null_config(seed=0):
    """Exponential baseline, covariates carrying no prognosis signal: the
    regular submodel where classical likelihood asymptotics are clean."""
    return make_config(
        psi0=(0.0, 0.0, 0.0),
        bin_coef=0.0,
        baseline=SurvivalCurve((0.0,), (0.45,)),
        seed=seed,
    )


@pytest.fixture(scope="session")
def rich_config():
    return make_config()


@pytest.fixture(scope="session")
def rich_world(rich_config):
    from snftm import oracle

    return oracle.enumerate_world(rich_config)


@pytest.fixture(scope="session")
def rich_laws(rich_world):
    return rich_world.conditional_laws()


@pytest.fixture(scope="session")
def null_world():
    from snftm import oracle

    return oracle.enumerate_world(make_config(psi0=(0.0, 0.0, 0.0)))


@pytest.fixture(scope="session")
def big_cohort(rich_config):
    """One million subjects, sampled once and shared (Monte-Carlo cross-checks)."""
    return dgp.sample_cohort(rich_config, 1_000_000, seed=2024)
